"""Transfer-function models of the on-chip photonic elements.

All frequencies are RF offsets from the optical carrier: the carrier sits at
0, the signal sideband of an RF tone at +f, its image at -f. Transmissions
are power ratios in [0, 1]; the photodetector output is the detected
optical power, in W, whose scale the emitters' amplitudes set.
"""

from dataclasses import dataclass, field

import numpy as np
# not scipy.signal: it takes about a second to import and only the scan path
# filters, so thermal_lag and pd_detect import it where they call it

from .rf_signals import BLOCK, TimeGrid

__all__ = [
    "ModulatorModel",
    "MrrModel",
    "MziModel",
    "NotchFilterModel",
    "PdModel",
    "LinkModels",
    "modulator_sideband_weight",
    "mrr_drop_response",
    "mrr_resonance_offset",
    "thermal_lag",
    "mzi_port_response",
    "acf",
    "notch_response",
    "noise_stream",
    "pd_detect",
    "link_power",
]


@dataclass(frozen=True)
class ModulatorModel:
    """Single-sideband modulator: first-order roll-off plus leakage terms.

    carrier_suppression / image_sideband_suppression give the residual
    carrier and image powers in dB below a full-amplitude sideband; the
    suppression of a real modulator is imperfect, so both leak through at a
    fixed level.
    """

    bw_3db: float = 22e9  # Hz
    carrier_suppression: float = 25.0  # dB
    image_sideband_suppression: float = 25.0  # dB

    def __post_init__(self):
        if self.bw_3db <= 0:
            raise ValueError("modulator bandwidth must be > 0")
        if self.carrier_suppression < 0 or self.image_sideband_suppression < 0:
            raise ValueError("suppressions must be >= 0 dB")


@dataclass(frozen=True)
class MrrModel:
    """Thermally scanned microring: periodic Lorentzian bandpass.

    The tracked resonance sits f_offset0 above the carrier at 0 V and shifts
    quadratically with drive voltage (thermal power heating); the heater
    responds with a first-order lag of time constant tau_thermal.
    """

    fsr: float = 80e9  # Hz
    fwhm: float = 875e6  # Hz, 3 dB width of the power transmission
    f_offset0: float = 8e9  # Hz above carrier at 0 V
    k_thermal: float = 2.0e9  # Hz / V^2
    tau_thermal: float = 37.3e-6  # s

    def __post_init__(self):
        if not (0 < self.fwhm < self.fsr):
            raise ValueError("need 0 < fwhm < fsr")
        if self.k_thermal <= 0 or self.tau_thermal <= 0:
            raise ValueError("thermal coefficients must be > 0")


@dataclass(frozen=True)
class MziModel:
    """Asymmetric MZI with complementary sinusoidal output ports."""

    fsr: float = 144e9  # Hz
    extinction_ratio: float = 18.0  # dB
    f_ref: float = 0.0  # Hz, frequency of the port-1 maximum

    def __post_init__(self):
        if self.fsr <= 0:
            raise ValueError("fsr must be > 0")
        if not 0 < self.extinction_ratio <= 3000:  # 10 ** (dB / 10) overflows past 3082 dB
            raise ValueError("extinction ratio must be > 0 and <= 3000 dB")

    @property
    def fringe_contrast(self) -> float:
        """gamma = (R-1)/(R+1) for power extinction ratio R."""
        r = 10.0 ** (self.extinction_ratio / 10.0)
        return (r - 1.0) / (r + 1.0)


@dataclass(frozen=True)
class NotchFilterModel:
    """Cascaded ring notches; staggering the centers broadens the stopband."""

    centers: tuple = (10e9,)  # Hz, 1-3 entries
    fwhm_each: float = 300e6  # Hz
    rejection: float = 20.0  # dB per ring

    def __post_init__(self):
        object.__setattr__(self, "centers", tuple(float(c) for c in self.centers))
        if not 1 <= len(self.centers) <= 3:
            raise ValueError("need 1-3 notch centers")
        if self.fwhm_each <= 0:
            raise ValueError("fwhm_each must be > 0")
        if self.rejection < 0:  # a negative rejection would amplify
            raise ValueError("rejection must be >= 0 dB")


@dataclass(frozen=True)
class PdModel:
    """Band-limited photodetector with additive Gaussian noise.

    noise_sigma is the noise std as a fraction of the waveform's full-scale
    detected power; the noise seed belongs to each pd_detect call.
    """

    bw_3db: float = 33e9  # Hz
    noise_sigma: float = 0.01

    def __post_init__(self):
        if self.bw_3db <= 0:
            raise ValueError("PD bandwidth must be > 0")
        if not 0 <= self.noise_sigma < np.inf:
            raise ValueError("noise_sigma must be finite and >= 0")


@dataclass(frozen=True)
class LinkModels:
    """Parameter bundle for a full link simulation."""

    modulator: ModulatorModel = field(default_factory=ModulatorModel)
    mrr: MrrModel = field(default_factory=MrrModel)
    mzi: MziModel = field(default_factory=MziModel)
    notch: NotchFilterModel | None = None
    pd: PdModel = field(default_factory=PdModel)


def modulator_sideband_weight(model: ModulatorModel, f):
    """First-order low-pass power roll-off: w(f) = 1 / (1 + (f/bw)^2)."""
    f = np.asarray(f, dtype=float)
    return 1.0 / (1.0 + (f / model.bw_3db) ** 2)


def link_power(modulator: ModulatorModel, response, components, n_samples: int) -> np.ndarray:
    """Optical power reaching the detector through one filter.

    components(block) gives the (freq, amplitude, active) triples of the
    samples of the slice block, the form of rf_signals.component_tracks:
    scalars for always-on tones, freq and active arrays as long as the
    block for dynamic emitters. Each triple has power a**2 * active (zero
    where inactive) and contributes its sideband at +f and the suppressed
    image at -f, both weighted by the modulator roll-off at f; the residual
    carrier at 0 scales with the summed sideband power.

    response(freq, block) is the filter's power transmission at an RF
    offset (scalar or per sample) for the samples of block, which a
    per-sample freq already covers; it is only read, so it may be a cached
    array. The sum runs over blocks of BLOCK samples into one output, so its
    temporaries and the components stay block-sized. Blocking cannot change
    a bit: every operation is elementwise and runs in the same order as over
    the whole trace, the components of a block must equal the slices of the
    whole trace's, and a response that picks its path per block must give
    each sample the same value on every path (mrr_drop_response skips the
    wrap for a block within half an FSR, where it would not change a square).
    """
    cs = 10.0 ** (-modulator.carrier_suppression / 10.0)
    imgs = 10.0 ** (-modulator.image_sideband_suppression / 10.0)
    total = np.zeros(n_samples)
    for start in range(0, n_samples, BLOCK):
        block = slice(start, start + BLOCK)
        out = total[block]
        sideband_power = 0.0
        for f, a, on in components(block):
            p = a**2 * on
            w = modulator_sideband_weight(modulator, f)
            out += response(f, block) * (p * w)
            out += response(-f, block) * (imgs * p * w)
            sideband_power = sideband_power + p
        out += cs * sideband_power * response(0.0, block)
    return total


def mrr_drop_response(model: MrrModel, detuning):
    """Lorentzian bandpass, periodic in the FSR.

    T(d) = 1 / (1 + (2 d' / fwhm)^2) with d' = d - round(d / fsr) * fsr, the
    detuning wrapped to the nearest resonance of the comb. The wrap is only
    computed when some detuning lies beyond half an FSR; within it d' is d.
    """
    d = np.asarray(detuning, dtype=float)
    half_fsr = model.fsr / 2.0
    # one new buffer for every shape; a 0-d one comes back as a scalar
    x = np.empty_like(d)
    if d.size and (d.min() < -half_fsr or d.max() > half_fsr):
        np.divide(d, model.fsr, out=x)
        np.round(x, out=x)
        x *= model.fsr
        np.subtract(d, x, out=x)
        d = x
    # 2 d / fwhm: doubling is exact, so dividing by fwhm / 2 gives the same bits
    np.divide(d, model.fwhm / 2.0, out=x)
    np.square(x, out=x)
    x += 1.0
    return np.divide(1.0, x, out=x)[()]


def mrr_resonance_offset(model: MrrModel, drive_power):
    """Tracked-resonance offset above the carrier for a heater drive power V^2."""
    return model.f_offset0 + model.k_thermal * np.asarray(drive_power, dtype=float)


def thermal_lag(drive_power, tau: float, grid: TimeGrid) -> np.ndarray:
    """First-order heater lag applied to a drive-power (V^2) waveform.

    y[k+1] = y[k] + (dt/tau) (x[k] - y[k]), y[0] = x[0]. The grid must
    resolve the lag: dt < tau/4.
    """
    x = np.asarray(drive_power, dtype=float)
    dt = grid.dt
    if dt >= tau / 4.0:
        raise ValueError(
            f"grid interval {dt:.3e} s undersamples thermal dynamics"
            f" (need < tau/4 = {tau / 4.0:.3e} s)"
        )
    from scipy.signal import lfilter

    alpha = dt / tau
    # IIR form of the recurrence: y[n] = (1-alpha) y[n-1] + alpha x[n-1]
    y = lfilter([0.0, alpha], [1.0, -(1.0 - alpha)], x, zi=np.array([x[0]]))[0]
    return y


def mzi_port_response(model: MziModel, f, port: int):
    """Power transmission of one MZI output port.

    port 1: (1 + g cos(2 pi (f - f_ref) / fsr)) / 2
    port 2: (1 - g cos(2 pi (f - f_ref) / fsr)) / 2
    with g the fringe contrast from the extinction ratio. The two ports are
    complementary: port1 + port2 = 1.
    """
    if port not in (1, 2):
        raise ValueError("port must be 1 or 2")
    f = np.asarray(f, dtype=float)
    g = model.fringe_contrast
    c = np.cos(2.0 * np.pi * (f - model.f_ref) / model.fsr)
    sign = 1.0 if port == 1 else -1.0
    return (1.0 + sign * g * c) / 2.0


def acf(model: MziModel, f):
    """Amplitude comparison function: 10 log10(port1 / port2) in dB."""
    p1 = mzi_port_response(model, f, 1)
    p2 = mzi_port_response(model, f, 2)
    return 10.0 * np.log10(p1 / p2)


def notch_response(model: NotchFilterModel, f):
    """Cascaded bandstop transmission: product of inverted Lorentzians."""
    f = np.asarray(f, dtype=float)
    r = 10.0 ** (-model.rejection / 10.0)
    t = np.ones_like(f)
    for c in model.centers:
        t = t * (1.0 - (1.0 - r) / (1.0 + (2.0 * (f - c) / model.fwhm_each) ** 2))
    return t


def noise_stream(seed: int) -> np.random.Generator:
    """The detector noise generator keyed by seed: a counter-based Philox
    stream, so equal seeds give bit-identical draws."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))


def pd_detect(power, model: PdModel, grid: TimeGrid, seed: int = 0, draws=None) -> np.ndarray:
    """Photodetection: bandwidth limit and additive noise on the power.

    The single-pole low-pass only engages when the grid can represent it
    (Nyquist >= bw_3db); at the slow scan rates used here the PD is
    transparent. Noise std is noise_sigma x max(power), so noise_sigma alone
    sets the SNR; output is clamped at zero. The noise comes from
    noise_stream(seed), so equal seeds give bit-identical output; it is
    drawn in one fill, then scaled, added and clamped in place.

    draws, when given, are the first power.size standard-normal draws of
    noise_stream(seed), drawn ahead by the caller; the output is written
    over them and returned. Otherwise a new array is returned. Either way
    power is only read; a sample that is negative or not finite is refused.
    """
    p = np.asarray(power, dtype=float)
    # a NaN sample is the min and the max, and fails the first test
    lo, hi = p.min(initial=0.0), p.max(initial=0.0)
    if not (lo >= 0 and hi < np.inf):
        raise ValueError("power samples must be finite and >= 0")
    out = p
    nyquist = grid.sample_rate / 2.0
    if nyquist >= model.bw_3db:
        from scipy.signal import lfilter, lfilter_zi

        # bilinear single-pole low-pass at bw_3db
        wc = 2.0 * np.pi * model.bw_3db
        k = wc * grid.dt / 2.0
        b = [k / (1.0 + k), k / (1.0 + k)]
        a = [1.0, (k - 1.0) / (1.0 + k)]
        out = lfilter(b, a, out, zi=lfilter_zi(b, a) * out[0])[0]
    # out + rng.normal(0.0, scale), which draws 0.0 + scale * z; a zero scale
    # adds signed zeros, so the clamp gives np.maximum(out, 0.0) bit for bit
    noisy = noise_stream(seed).standard_normal(out.shape) if draws is None else draws
    noisy *= model.noise_sigma * float(hi)
    noisy += out
    return np.maximum(noisy, 0.0, out=noisy)
