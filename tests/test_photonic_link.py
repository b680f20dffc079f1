from dataclasses import replace

import numpy as np
import pytest
from scipy.signal import lfilter, lfilter_zi

from mwfi.ifm_engine import simulate_ifm
from mwfi.rf_signals import (
    ChirpSpec,
    HopSpec,
    RfScenario,
    TimeGrid,
    ToneSpec,
    component_powers,
    instantaneous_components,
)
from mwfi.photonic_link import (
    BLOCK,
    LinkModels,
    ModulatorModel,
    MrrModel,
    MziModel,
    NotchFilterModel,
    PdModel,
    acf,
    link_power,
    modulator_sideband_weight,
    mrr_drop_response,
    mrr_resonance_offset,
    mzi_port_response,
    notch_response,
    pd_detect,
    thermal_lag,
)
from mwfi.scan_engine import SawtoothDrive, scan_frequency, simulate_scan

# fringe contrast for the default 18 dB extinction ratio: (R-1)/(R+1), R = 10^1.8
GAMMA_18DB = 0.9687966755163407


class TestModulator:
    def test_dc_weight_is_unity(self):
        assert modulator_sideband_weight(ModulatorModel(), 0.0) == 1.0

    def test_half_power_at_3db_bandwidth(self):
        assert modulator_sideband_weight(ModulatorModel(), 22e9) == pytest.approx(0.5)

    def test_double_bandwidth(self):
        # 1 / (1 + 2^2)
        assert modulator_sideband_weight(ModulatorModel(), 44e9) == pytest.approx(0.2)

    def test_monotone_decreasing(self):
        f = np.linspace(0.1e9, 60e9, 500)
        w = modulator_sideband_weight(ModulatorModel(), f)
        assert np.all(np.diff(w) < 0)


class TestMrr:
    def test_on_resonance(self):
        assert mrr_drop_response(MrrModel(), 0.0) == 1.0

    def test_half_max_at_half_fwhm(self):
        m = MrrModel()
        assert mrr_drop_response(m, 437.5e6) == pytest.approx(0.5, abs=1e-9)
        assert mrr_drop_response(m, -437.5e6) == pytest.approx(0.5, abs=1e-9)

    def test_fsr_periodicity(self):
        m = MrrModel()
        assert mrr_drop_response(m, 80e9) == pytest.approx(1.0, abs=1e-9)
        d = np.linspace(-2e9, 2e9, 101)
        np.testing.assert_allclose(
            mrr_drop_response(m, d), mrr_drop_response(m, d + m.fsr), atol=1e-9
        )

    def test_symmetry(self):
        m = MrrModel()
        d = np.linspace(0, 3e9, 50)
        np.testing.assert_allclose(mrr_drop_response(m, d), mrr_drop_response(m, -d))

    def test_input_not_mutated(self):
        m = MrrModel()
        for span in (30e9, 100e9):  # within half an FSR, and wrapped
            d = np.linspace(-span, span, 41)
            before = d.copy()
            mrr_drop_response(m, d)
            assert np.array_equal(d, before)
        # a scalar detuning gives a scalar
        assert np.ndim(mrr_drop_response(m, 1e9)) == 0

    @pytest.mark.parametrize("span", [30e9, 250e9])  # within half an FSR, and wrapped
    def test_equals_wrapped_lorentzian(self, span):
        m = MrrModel()
        rng = np.random.default_rng(5)
        half = m.fsr / 2.0
        d = np.concatenate((rng.uniform(-span, span, 10001), [0.0, -0.0, span, -span]))
        if span > half:
            d = np.concatenate((d, [half, -half, m.fsr, -3 * m.fsr, np.nextafter(half, 0)]))
        want = 1.0 / (1.0 + (2.0 * (d - m.fsr * np.round(d / m.fsr)) / m.fwhm) ** 2)
        assert np.array_equal(mrr_drop_response(m, d), want)
        assert [mrr_drop_response(m, x) for x in d[-5:]] == list(want[-5:])

    def test_scalar_gives_the_bits_of_its_array_element(self):
        # one kernel for every shape, in the wrap region and out of it
        m = MrrModel()
        d = np.random.default_rng(7).uniform(-120e9, 120e9, 20000)
        d = np.concatenate((d, [0.0, -0.0, m.fsr / 2, -m.fsr / 2, m.fsr, -3 * m.fsr]))
        inside = d[np.abs(d) <= m.fsr / 2]  # an array that needs no wrap
        for detunings in (d, inside):
            scalars = [mrr_drop_response(m, x) for x in detunings]
            assert np.array_equal(scalars, mrr_drop_response(m, detunings))

    def test_resonance_offset_quadratic(self):
        # the law takes the heater drive power V^2: 0, 2 and 4 V
        m = MrrModel()
        assert mrr_resonance_offset(m, 0.0) == pytest.approx(8e9)
        assert mrr_resonance_offset(m, 4.0) == pytest.approx(16e9)
        assert mrr_resonance_offset(m, 16.0) == pytest.approx(40e9)

    def test_resonance_offset_rejects_negative_voltage(self):
        # V^2 cannot be negative; the drive refuses a ramp through 0 V, on
        # which the heating, and so the scan, would turn back
        with pytest.raises(ValueError, match="0 <= v_min"):
            SawtoothDrive(v_min=-1.0)
        SawtoothDrive(v_min=0.0)


class TestThermalLag:
    def test_constant_passthrough(self):
        grid = TimeGrid(sample_rate=1e6, n_samples=1000)
        x = np.full(1000, 5.0)
        np.testing.assert_allclose(thermal_lag(x, 37.3e-6, grid), x)

    def test_step_reaches_one_minus_inv_e_at_tau(self):
        tau = 37.3e-6
        dt = tau / 200
        grid = TimeGrid(sample_rate=1.0 / dt, n_samples=1000)
        x = np.ones(1000)
        x[0] = 0.0  # step turns on after the first sample
        y = thermal_lag(x, tau, grid)
        assert y[1 + 200] == pytest.approx(1 - np.exp(-1), rel=0.01)

    def test_rise_time_10_90_matches_82us(self):
        tau = 37.3e-6
        grid = TimeGrid(sample_rate=20e6, n_samples=40000)
        x = np.ones(40000)
        x[0] = 0.0
        y = thermal_lag(x, tau, grid)
        t10 = np.argmax(y >= 0.1) * grid.dt
        t90 = np.argmax(y >= 0.9) * grid.dt
        assert t90 - t10 == pytest.approx(tau * np.log(9), rel=0.01)
        assert t90 - t10 == pytest.approx(82e-6, rel=0.01)

    def test_matches_explicit_recurrence(self):
        tau = 50e-6
        grid = TimeGrid(sample_rate=1e6, n_samples=300)
        rng = np.random.default_rng(0)
        x = rng.uniform(0, 16, 300)
        y = thermal_lag(x, tau, grid)
        ref = np.empty_like(x)
        ref[0] = x[0]
        alpha = grid.dt / tau
        for k in range(299):
            ref[k + 1] = ref[k] + alpha * (x[k] - ref[k])
        np.testing.assert_allclose(y, ref, rtol=1e-12)

    def test_steady_state_within_point1_percent_after_10_tau(self):
        tau = 37.3e-6
        grid = TimeGrid(sample_rate=2e6, n_samples=2000)
        x = np.full(2000, 3.0)
        x[0] = 0.0
        y = thermal_lag(x, tau, grid)
        k = int(10 * tau / grid.dt) + 1
        assert abs(y[k] - 3.0) / 3.0 < 1e-3

    def test_undersampled_grid_rejected(self):
        grid = TimeGrid(sample_rate=1e4, n_samples=100)  # dt = 100 us >> tau/4
        with pytest.raises(ValueError, match="undersample"):
            thermal_lag(np.ones(100), 37.3e-6, grid)


class TestMzi:
    def test_port_complementarity_random_frequencies(self):
        m = MziModel()
        f = np.random.default_rng(7).uniform(-300e9, 300e9, 10000)
        total = mzi_port_response(m, f, 1) + mzi_port_response(m, f, 2)
        np.testing.assert_allclose(total, 1.0, atol=1e-12)

    def test_port2_minimum_at_reference(self):
        m = MziModel()
        assert m.fringe_contrast == pytest.approx(GAMMA_18DB, abs=1e-12)
        assert mzi_port_response(m, 0.0, 2) == pytest.approx((1 - GAMMA_18DB) / 2, abs=1e-9)
        assert mzi_port_response(m, 0.0, 2) == pytest.approx(0.0156017, abs=1e-6)

    def test_quarter_fsr_is_half(self):
        assert mzi_port_response(MziModel(), 36e9, 2) == pytest.approx(0.5, abs=1e-12)

    def test_fsr_periodicity(self):
        m = MziModel()
        f = np.linspace(5e9, 25e9, 64)
        np.testing.assert_allclose(
            mzi_port_response(m, f, 1), mzi_port_response(m, f + m.fsr, 1), atol=1e-9
        )

    def test_bad_port_rejected(self):
        with pytest.raises(ValueError):
            mzi_port_response(MziModel(), 1e9, 3)


class TestAcf:
    def test_extremes_and_zero(self):
        m = MziModel()
        assert acf(m, 0.0) == pytest.approx(18.0, abs=0.01)  # (1+g)/(1-g) = R
        assert acf(m, 36e9) == pytest.approx(0.0, abs=1e-9)
        assert acf(m, 72e9) == pytest.approx(-18.0, abs=0.01)

    def test_strictly_decreasing_over_half_period(self):
        m = MziModel()
        f = np.linspace(1e6, 72e9 - 1e6, 2000)
        assert np.all(np.diff(acf(m, f)) < 0)


class TestNotch:
    def test_far_passband(self):
        m = NotchFilterModel(centers=(10e9,), fwhm_each=300e6)
        assert notch_response(m, 10e9 + 51 * 300e6) >= 0.999

    def test_single_ring_center_rejection(self):
        m = NotchFilterModel(centers=(10e9,), fwhm_each=300e6, rejection=20.0)
        assert notch_response(m, 10e9) == pytest.approx(0.01, abs=1e-12)

    def test_three_rings_multiply(self):
        m = NotchFilterModel(centers=(10e9, 10e9, 10e9), fwhm_each=300e6, rejection=20.0)
        assert notch_response(m, 10e9) == pytest.approx(1e-6, rel=1e-9)

    def test_center_count_bounds(self):
        with pytest.raises(ValueError):
            NotchFilterModel(centers=())
        with pytest.raises(ValueError):
            NotchFilterModel(centers=(1e9, 2e9, 3e9, 4e9))


class TestPd:
    def test_transparent_below_bandwidth(self):
        # 1 MS/s Nyquist is far below 33 GHz: waveform passes unchanged
        grid = TimeGrid(sample_rate=1e6, n_samples=256)
        x = np.abs(np.sin(np.linspace(0, 20, 256))) + 0.1
        out = pd_detect(x, PdModel(noise_sigma=0.0), grid)
        np.testing.assert_allclose(out, x)

    def test_lowpass_engages_on_fast_grid(self):
        # sine at the 3 dB frequency loses half its power
        bw = 1e9
        rate = 100e9
        grid = TimeGrid(sample_rate=rate, n_samples=4096)
        t = grid.times()
        x = 1.0 + 0.5 * np.sin(2 * np.pi * bw * t)
        out = pd_detect(x, PdModel(bw_3db=bw, noise_sigma=0.0), grid)
        tail = out[2048:]
        gain = (tail.max() - tail.min()) / 1.0
        assert gain == pytest.approx(np.sqrt(0.5), rel=0.02)

    def test_same_seed_bit_identical(self):
        grid = TimeGrid(sample_rate=1e6, n_samples=512)
        x = np.linspace(0, 1, 512)
        a = pd_detect(x, PdModel(noise_sigma=0.02, seed=123), grid)
        b = pd_detect(x, PdModel(noise_sigma=0.02, seed=123), grid)
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        grid = TimeGrid(sample_rate=1e6, n_samples=512)
        x = np.linspace(0, 1, 512)
        a = pd_detect(x, PdModel(noise_sigma=0.02, seed=1), grid)
        b = pd_detect(x, PdModel(noise_sigma=0.02, seed=2), grid)
        assert not np.array_equal(a, b)

    def test_output_clamped_nonnegative(self):
        grid = TimeGrid(sample_rate=1e6, n_samples=2048)
        x = np.full(2048, 1e-3)
        out = pd_detect(x, PdModel(noise_sigma=0.5, seed=5), grid)
        assert np.all(out >= 0)

    def test_negative_power_rejected(self):
        grid = TimeGrid(sample_rate=1e6, n_samples=4)
        with pytest.raises(ValueError):
            pd_detect(np.array([0.1, -0.1, 0.2, 0.3]), PdModel(), grid)

    @pytest.mark.parametrize("rate", [1e6, 100e9])  # transparent, low-pass
    def test_noise_equals_one_normal_draw(self, rate):
        grid = TimeGrid(sample_rate=rate, n_samples=4096)
        x = np.abs(np.sin(np.linspace(0, 30, 4096)))
        before = x.copy()
        model = PdModel(bw_3db=1e9, noise_sigma=0.3, seed=77)
        out = x
        if rate / 2.0 >= model.bw_3db:
            k = 2.0 * np.pi * model.bw_3db * grid.dt / 2.0
            b = [k / (1.0 + k), k / (1.0 + k)]
            a = [1.0, (k - 1.0) / (1.0 + k)]
            out = lfilter(b, a, out, zi=lfilter_zi(b, a) * out[0])[0]
        scale = model.noise_sigma * float(np.max(x))
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(model.seed)))
        want = np.maximum(out + rng.normal(0.0, scale, size=out.shape), 0.0)
        got = pd_detect(x, model, grid)
        assert np.array_equal(got, want)
        assert np.any(got == 0.0)  # the clamp acted
        assert np.array_equal(x, before)
        quiet = pd_detect(x, replace(model, noise_sigma=0.0), grid)
        assert np.array_equal(quiet, np.maximum(out, 0.0))
        assert np.array_equal(x, before)


def test_all_transmissions_bounded():
    rng = np.random.default_rng(11)
    f = rng.uniform(-500e9, 500e9, 5000)
    for values in (
        modulator_sideband_weight(ModulatorModel(), np.abs(f)),
        mrr_drop_response(MrrModel(), f),
        mzi_port_response(MziModel(), f, 1),
        mzi_port_response(MziModel(), f, 2),
        notch_response(NotchFilterModel(centers=(10e9, 12e9), fwhm_each=500e6), f),
    ):
        assert np.all(values >= 0.0)
        assert np.all(values <= 1.0 + 1e-12)


class TestLinkPower:
    """simulate_scan and simulate_ifm against a per-sample sum over
    instantaneous_components: sideband and suppressed image weighted by
    the modulator roll-off, plus the residual carrier, through each filter."""

    SCENARIO = RfScenario(
        tones=(ToneSpec(freq=11e9, amplitude=0.6),),
        chirps=(ChirpSpec(15e9, 4e9, 160e-9, 400e-9, amplitude=1.3),),
        hops=(HopSpec((10e9, 13e9, 18e9), dwell=80e-9, amplitude=0.8),),
    )
    MODELS = LinkModels(
        modulator=ModulatorModel(carrier_suppression=20.0, image_sideband_suppression=15.0),
        notch=NotchFilterModel(centers=(10e9, 10.2e9)),
        pd=PdModel(noise_sigma=0.0),
        link_gain=1.7,
    )

    def _oracle(self, grid, response):
        """response(k, f): filter transmission at RF offset f for sample k."""
        mod = self.MODELS.modulator
        cs = 10.0 ** (-mod.carrier_suppression / 10.0)
        imgs = 10.0 ** (-mod.image_sideband_suppression / 10.0)
        out = np.empty(grid.n_samples)
        for k, t in enumerate(grid.times()):
            total = sideband = 0.0
            for f, amp in instantaneous_components(self.SCENARIO, t).components:
                p = amp * amp
                w = 1.0 / (1.0 + (f / mod.bw_3db) ** 2)
                total += p * w * (response(k, f) + imgs * response(k, -f))
                sideband += p
            out[k] = total + cs * sideband * response(k, 0.0)
        return out * self.MODELS.link_gain

    def test_scan_matches_component_sum(self):
        drive = SawtoothDrive(period=2e-3)
        rate = 1_234_567.0
        grid = TimeGrid(sample_rate=rate, n_samples=round(rate * drive.period))
        f_s = scan_frequency(self.MODELS, drive, grid)
        mrr = self.MODELS.mrr
        want = self._oracle(grid, lambda k, f: float(mrr_drop_response(mrr, f - f_s[k])))
        got = simulate_scan(self.SCENARIO, self.MODELS, drive, grid).power
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("port", [1, 2])
    def test_ifm_matches_component_sum(self, port):
        grid = TimeGrid(sample_rate=1e9, n_samples=1000)
        mzi, notch = self.MODELS.mzi, self.MODELS.notch

        def response(k, f):
            return float(mzi_port_response(mzi, f, port) * notch_response(notch, f))

        want = self._oracle(grid, response)
        got = simulate_ifm(self.SCENARIO, self.MODELS, grid, port=port).power
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)


class TestBlocking:
    """link_power and pd_detect work in blocks of BLOCK samples; each result
    equals the whole-array formula bit for bit, at lengths on both sides of
    the block boundaries."""

    LENGTHS = [BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 7]

    @staticmethod
    def _unblocked(modulator, response, components, n_samples):
        """The whole-array sum; response(freq) covers every sample."""
        cs = 10.0 ** (-modulator.carrier_suppression / 10.0)
        imgs = 10.0 ** (-modulator.image_sideband_suppression / 10.0)
        total = np.zeros(n_samples)
        sideband_power = 0.0
        for f, p in components:
            w = modulator_sideband_weight(modulator, f)
            resp = response(f)
            resp *= p * w
            total += resp
            resp = response(-f)
            resp *= imgs * p * w
            total += resp
            sideband_power = sideband_power + p
        total += cs * sideband_power * response(0.0)
        return total

    @staticmethod
    def _components(n_samples):
        """A scalar tone, a chirp and a hop (TestLinkPower's scenario)."""
        grid = TimeGrid(sample_rate=1e9, n_samples=n_samples)
        return component_powers(TestLinkPower.SCENARIO, grid)

    @pytest.mark.parametrize("n", LENGTHS)
    def test_ring_sum_equals_whole_array(self, n):
        mrr = MrrModel()
        # one sample in the first block and the last sample put the
        # detunings beyond -fsr/2 and +fsr/2; the middle block of the
        # longest trace stays within them, so it takes the unwrapped path
        # while the whole array takes the wrapped one
        f_s = np.linspace(-25e9, 25e9, n)
        f_s[BLOCK // 2], f_s[-1] = -70e9, 70e9
        detunings = np.subtract.outer([11e9, -11e9, 0.0], f_s)
        assert detunings.min() < -mrr.fsr / 2 and detunings.max() > mrr.fsr / 2
        if n > 2 * BLOCK:
            assert np.all(np.abs(detunings[:, BLOCK : 2 * BLOCK]) <= mrr.fsr / 2)
        components = self._components(n)
        mod = TestLinkPower.MODELS.modulator
        got = link_power(
            mod, lambda f, block: mrr_drop_response(mrr, f - f_s[block]), components, n
        )
        want = self._unblocked(mod, lambda f: mrr_drop_response(mrr, f - f_s), components, n)
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("n", LENGTHS)
    def test_mzi_bandstop_sum_equals_whole_array(self, n):
        mzi, notch = TestLinkPower.MODELS.mzi, TestLinkPower.MODELS.notch

        def response(f, _=None):
            return mzi_port_response(mzi, f, 2) * notch_response(notch, f)

        components = self._components(n)
        mod = TestLinkPower.MODELS.modulator
        got = link_power(mod, response, components, n)
        assert np.array_equal(got, self._unblocked(mod, response, components, n))

    @pytest.mark.parametrize("n", LENGTHS)
    def test_noise_equals_one_fill(self, n):
        grid = TimeGrid(sample_rate=1e6, n_samples=n)  # below the PD low-pass
        x = np.abs(np.sin(np.linspace(0.0, 40.0, n)))
        model = PdModel(noise_sigma=0.3, seed=91)
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(model.seed)))
        want = rng.standard_normal(n)
        want *= model.noise_sigma * float(np.max(x))
        want += x
        np.maximum(want, 0.0, out=want)
        got = pd_detect(x, model, grid)
        assert np.array_equal(got, want)
        assert np.any(got == 0.0)  # the clamp acted
