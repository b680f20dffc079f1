"""Flat key-value run configuration.

Lines are `key = value` with `#` comments; keys are dotted section paths and
every physical quantity carries an SI-unit suffix (_hz, _s, _v) so values
never need unit conversion. Unknown keys are rejected with their line
number, which catches typos before they silently fall back to defaults.
"""

import math
import re
from contextlib import contextmanager
from dataclasses import dataclass, field

from .rf_signals import ChirpSpec, HopSpec, RfScenario, ToneSpec
from .photonic_link import (
    LinkModels,
    ModulatorModel,
    MrrModel,
    MziModel,
    NotchFilterModel,
    PdModel,
)
from .scan_engine import SawtoothDrive

__all__ = ["ConfigError", "RunConfig", "MODES"]

MODES = ("calibrate", "measure", "classify", "dynamic", "sweep")

# every key the parser accepts; <n> slots allow repeated emitters
_KEY_PATTERNS = [
    r"mode",
    r"seed",
    r"out_dir",
    r"drive\.(v_min_v|v_max_v|period_s|n_periods)",
    r"scan\.sample_rate_hz",
    r"modulator\.(bw_3db_hz|carrier_suppression_db|image_suppression_db)",
    r"mrr\.(fsr_hz|fwhm_hz|f_offset0_hz|k_thermal_hz_per_v2|tau_thermal_s|peak_transmission)",
    r"mzi\.(fsr_hz|extinction_ratio_db|f_ref_hz|insertion_loss_db)",
    r"notch\.(enabled|centers_hz|fwhm_each_hz|rejection_db)",
    r"pd\.(bw_3db_hz|responsivity|noise_sigma)",
    r"link\.gain",
    r"scenario\.tone\d+\.(freq_hz|amplitude)",
    r"scenario\.chirp\d+\.(center_hz|span_hz|pulse_width_s|repeat_interval_s|amplitude|direction)",
    r"scenario\.hop\d+\.(freqs_hz|dwell_s|amplitude|start_s|repeat)",
    r"calibration\.(lo_hz|hi_hz|step_hz)",
    r"measure\.(lo_hz|hi_hz|step_hz|method)",
    r"detect\.(noise_floor_quantile|min_prominence|gap_tolerance_s)",
    r"classify\.(fill_threshold|gap_threshold_s)",
    r"span\.rel_threshold",
    r"ifm\.(sample_rate_hz|duration_s|port|band_lo_hz|band_hi_hz|n_knots|noise_floor|upper_limit_hz|mode)",
    r"sweep\.(mode|n_seeds)",
]
_KEY_RE = re.compile("^(" + "|".join(_KEY_PATTERNS) + ")$")


class ConfigError(ValueError):
    pass


def _parse_text(text: str, source: str) -> dict:
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value', got {raw.strip()!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if not _KEY_RE.match(key):
            raise ConfigError(f"{source}:{lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"{source}:{lineno}: duplicate key {key!r}")
        if not value:
            raise ConfigError(f"{source}:{lineno}: empty value for {key!r}")
        values[key] = value
    return values


@dataclass
class RunConfig:
    """Typed view over a parsed config file."""

    values: dict = field(default_factory=dict)
    source: str = "<config>"

    @classmethod
    def from_text(cls, text: str, source: str = "<config>") -> "RunConfig":
        return cls(values=_parse_text(text, source), source=source)

    @classmethod
    def from_file(cls, path) -> "RunConfig":
        with open(path) as fh:
            return cls.from_text(fh.read(), source=str(path))

    # typed getters -------------------------------------------------------
    def get_str(self, key, default=None):
        return self.values.get(key, default)

    def _number(self, key, token):
        try:
            value = float(token)
        except ValueError:
            raise ConfigError(f"{self.source}: key {key!r}: not a number: {token!r}")
        if not math.isfinite(value):
            raise ConfigError(f"{self.source}: key {key!r}: not a finite number: {token!r}")
        return value

    def get_float(self, key, default=None):
        if key not in self.values:
            return default
        return self._number(key, self.values[key])

    def get_int(self, key, default=None):
        value = self.get_float(key)
        if value is None:
            return default
        if not value.is_integer():
            raise ConfigError(f"{self.source}: key {key!r}: not an integer: {self.values[key]!r}")
        return int(value)

    def get_bool(self, key, default=None):
        if key not in self.values:
            return default
        token = self.values[key].lower()
        if token in ("true", "yes", "1", "on"):
            return True
        if token in ("false", "no", "0", "off"):
            return False
        raise ConfigError(f"{self.source}: key {key!r}: not a boolean: {self.values[key]!r}")

    def get_float_list(self, key, default=None):
        if key not in self.values:
            return default
        return [self._number(key, tok) for tok in self.values[key].split(",") if tok.strip()]

    # section builders ----------------------------------------------------
    @contextmanager
    def blame(self, where):
        """Report a ValueError raised in the block as a config error of
        `where`, a key or a section, e.g. "key 'scan.sample_rate_hz'"."""
        try:
            yield
        except ValueError as exc:
            raise ConfigError(f"{self.source}: {where}: {exc}") from None

    def _make(self, section, model, **params):
        """model(**params), with the model's own ValueError reported as a
        config error of the section the parameters came from."""
        with self.blame(f"section {section!r}"):
            return model(**params)

    @property
    def mode(self) -> str:
        mode = self.get_str("mode")
        if mode is None:
            raise ConfigError(f"{self.source}: missing required key 'mode'")
        if mode not in MODES:
            raise ConfigError(
                f"{self.source}: key 'mode': unknown mode {mode!r} (expected one of {', '.join(MODES)})"
            )
        return mode

    @property
    def seed(self) -> int:
        return self.get_int("seed", 1)

    def build_scenario(self) -> RfScenario:
        tones, chirps, hops = [], [], []
        indices = {"tone": set(), "chirp": set(), "hop": set()}
        for key in self.values:
            m = re.match(r"scenario\.(tone|chirp|hop)(\d+)\.", key)
            if m:
                indices[m.group(1)].add(int(m.group(2)))
        for i in sorted(indices["tone"]):
            p = f"scenario.tone{i}."
            freq = self.get_float(p + "freq_hz")
            if freq is None:
                raise ConfigError(f"{self.source}: scenario.tone{i} needs freq_hz")
            amplitude = self.get_float(p + "amplitude", 1.0)
            tones.append(self._make(p[:-1], ToneSpec, freq=freq, amplitude=amplitude))
        for i in sorted(indices["chirp"]):
            p = f"scenario.chirp{i}."
            for need in ("center_hz", "span_hz", "pulse_width_s", "repeat_interval_s"):
                if p + need not in self.values:
                    raise ConfigError(f"{self.source}: scenario.chirp{i} needs {need}")
            chirps.append(
                self._make(
                    p[:-1], ChirpSpec,
                    center=self.get_float(p + "center_hz"),
                    span=self.get_float(p + "span_hz"),
                    pulse_width=self.get_float(p + "pulse_width_s"),
                    repeat_interval=self.get_float(p + "repeat_interval_s"),
                    amplitude=self.get_float(p + "amplitude", 1.0),
                    direction=self.get_str(p + "direction", "up"),
                )
            )
        for i in sorted(indices["hop"]):
            p = f"scenario.hop{i}."
            freqs = self.get_float_list(p + "freqs_hz")
            if freqs is None:
                raise ConfigError(f"{self.source}: scenario.hop{i} needs freqs_hz")
            if p + "dwell_s" not in self.values:
                raise ConfigError(f"{self.source}: scenario.hop{i} needs dwell_s")
            hops.append(
                self._make(
                    p[:-1], HopSpec,
                    freqs=tuple(freqs),
                    dwell=self.get_float(p + "dwell_s"),
                    amplitude=self.get_float(p + "amplitude", 1.0),
                    start=self.get_float(p + "start_s", 0.0),
                    repeat=self.get_bool(p + "repeat", True),
                )
            )
        return RfScenario(tones=tuple(tones), chirps=tuple(chirps), hops=tuple(hops))

    def build_models(self, seed: int | None = None) -> LinkModels:
        notch = None
        if self.get_bool("notch.enabled", False):
            notch = self._make(
                "notch", NotchFilterModel,
                centers=self.get_float_list("notch.centers_hz", [10e9]),
                fwhm_each=self.get_float("notch.fwhm_each_hz", 300e6),
                rejection=self.get_float("notch.rejection_db", 20.0),
            )
        return self._make(
            "link", LinkModels,
            modulator=self._make(
                "modulator", ModulatorModel,
                bw_3db=self.get_float("modulator.bw_3db_hz", 22e9),
                carrier_suppression=self.get_float("modulator.carrier_suppression_db", 25.0),
                image_sideband_suppression=self.get_float("modulator.image_suppression_db", 25.0),
            ),
            mrr=self._make(
                "mrr", MrrModel,
                fsr=self.get_float("mrr.fsr_hz", 80e9),
                fwhm=self.get_float("mrr.fwhm_hz", 875e6),
                f_offset0=self.get_float("mrr.f_offset0_hz", 8e9),
                k_thermal=self.get_float("mrr.k_thermal_hz_per_v2", 2.0e9),
                tau_thermal=self.get_float("mrr.tau_thermal_s", 37.3e-6),
                peak_transmission=self.get_float("mrr.peak_transmission", 1.0),
            ),
            mzi=self._make(
                "mzi", MziModel,
                fsr=self.get_float("mzi.fsr_hz", 144e9),
                extinction_ratio=self.get_float("mzi.extinction_ratio_db", 18.0),
                f_ref=self.get_float("mzi.f_ref_hz", 0.0),
                insertion_loss=self.get_float("mzi.insertion_loss_db", 0.0),
            ),
            notch=notch,
            pd=self._make(
                "pd", PdModel,
                bw_3db=self.get_float("pd.bw_3db_hz", 33e9),
                responsivity=self.get_float("pd.responsivity", 1.0),
                noise_sigma=self.get_float("pd.noise_sigma", 0.01),
                seed=self.seed if seed is None else seed,
            ),
            link_gain=self.get_float("link.gain", 1.0),
        )

    def build_drive(self) -> SawtoothDrive:
        n_periods = self.get_int("drive.n_periods", 1)
        if n_periods > 1:
            # every period would show each calibration tone once more
            raise ConfigError(
                f"{self.source}: key 'drive.n_periods': scans of more than one period "
                "are not supported"
            )
        return self._make(
            "drive", SawtoothDrive,
            v_min=self.get_float("drive.v_min_v", 0.0),
            v_max=self.get_float("drive.v_max_v", 4.0),
            period=self.get_float("drive.period_s", 0.25),
            n_periods=n_periods,
        )
