"""Flat key-value run configuration.

Lines are `key = value` with `#` comments; keys are dotted section paths and
every physical quantity carries an SI-unit suffix (_hz, _s, _v) so values
never need unit conversion. Unknown keys are rejected with their line
number, which catches typos before they silently fall back to defaults.
"""

import math
import re
from contextlib import contextmanager
from dataclasses import MISSING, dataclass, field, fields

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

# model section -> (model, {config key: model field}); a field without a
# default is a key every emitter of that kind must set
_SECTIONS = {
    "drive": (SawtoothDrive, {
        "v_min_v": "v_min", "v_max_v": "v_max", "period_s": "period", "n_periods": "n_periods",
    }),
    "modulator": (ModulatorModel, {
        "bw_3db_hz": "bw_3db",
        "carrier_suppression_db": "carrier_suppression",
        "image_suppression_db": "image_sideband_suppression",
    }),
    "mrr": (MrrModel, {
        "fsr_hz": "fsr", "fwhm_hz": "fwhm", "f_offset0_hz": "f_offset0",
        "k_thermal_hz_per_v2": "k_thermal", "tau_thermal_s": "tau_thermal",
    }),
    "mzi": (MziModel, {
        "fsr_hz": "fsr", "extinction_ratio_db": "extinction_ratio", "f_ref_hz": "f_ref",
    }),
    "notch": (NotchFilterModel, {
        "centers_hz": "centers", "fwhm_each_hz": "fwhm_each", "rejection_db": "rejection",
    }),
    "pd": (PdModel, {"bw_3db_hz": "bw_3db", "noise_sigma": "noise_sigma"}),
    "link": (LinkModels, {"gain": "link_gain"}),
    "tone": (ToneSpec, {"freq_hz": "freq", "amplitude": "amplitude"}),
    "chirp": (ChirpSpec, {
        "center_hz": "center", "span_hz": "span", "pulse_width_s": "pulse_width",
        "repeat_interval_s": "repeat_interval", "amplitude": "amplitude",
        "direction": "direction",
    }),
    "hop": (HopSpec, {
        "freqs_hz": "freqs", "dwell_s": "dwell", "amplitude": "amplitude",
        "start_s": "start", "repeat": "repeat",
    }),
}
_EMITTERS = ("tone", "chirp", "hop")

# every key the parser accepts: the run settings and notch.enabled by hand,
# the model keys from _SECTIONS; emitters repeat by index (tone1, tone2, ...)
_KEY_PATTERNS = [
    r"mode",
    r"seed",
    r"out_dir",
    r"scan\.sample_rate_hz",
    r"notch\.enabled",
    r"calibration\.(lo_hz|hi_hz|step_hz)",
    r"measure\.(lo_hz|hi_hz|step_hz|method)",
    r"ifm\.(sample_rate_hz|duration_s|port|band_lo_hz|band_hi_hz|n_knots|noise_floor|upper_limit_hz|mode)",
    r"sweep\.(mode|n_seeds)",
] + [
    (rf"scenario\.{section}\d+" if section in _EMITTERS else section) + rf"\.({'|'.join(keys)})"
    for section, (_, keys) in _SECTIONS.items()
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

    # checks and section builders -----------------------------------------
    def require(self, ok, where, message):
        """Unless ok, raise a config error of `where`, a key or a section,
        e.g. "key 'scan.sample_rate_hz'"; the message starts with the source."""
        if not ok:
            raise ConfigError(f"{self.source}: {where}: {message}")

    @contextmanager
    def blame(self, where):
        """Report a ValueError raised in the block as a config error of where."""
        try:
            yield
        except ValueError as exc:
            raise ConfigError(f"{self.source}: {where}: {exc}") from None

    @property
    def mode(self) -> str:
        mode = self.get_str("mode")
        self.require(mode is not None, "key 'mode'", "missing required key")
        self.require(mode in MODES, "key 'mode'", f"unknown mode {mode!r} ({', '.join(MODES)})")
        return mode

    @property
    def seed(self) -> int:
        return self.get_int("seed", 1)

    def _value(self, key, kind):
        """The value of a set key, parsed as the model field type kind."""
        if kind is tuple:
            tokens = self.values[key].split(",")
            return tuple(self._number(key, tok) for tok in tokens if tok.strip())
        parse = {float: self.get_float, int: self.get_int, bool: self.get_bool, str: self.get_str}
        return parse[kind](key)

    def _build(self, section, prefix=None, **given):
        """The section's model from its keys under prefix (default the
        section); an unset key keeps the model's default, and given fields
        are passed as they are. The model's own ValueError is reported as a
        config error of the section."""
        prefix = prefix or section
        model, keys = _SECTIONS[section]
        spec = {f.name: f for f in fields(model)}
        params = {}
        for key, name in keys.items():
            full = f"{prefix}.{key}"
            if full in self.values:
                params[name] = self._value(full, spec[name].type)
            else:
                unset = spec[name].default is MISSING and spec[name].default_factory is MISSING
                emitter = prefix.rsplit(".", 1)[-1]
                self.require(not unset, f"key '{full}'", f"unset ({emitter} needs {key})")
        with self.blame(f"section {prefix!r}"):
            return model(**params, **given)

    def build_scenario(self) -> RfScenario:
        indices = {kind: set() for kind in _EMITTERS}
        for key in self.values:
            m = re.match(rf"scenario\.({'|'.join(_EMITTERS)})(\d+)\.", key)
            if m:
                indices[m.group(1)].add(int(m.group(2)))
        emitters = {
            kind: tuple(self._build(kind, f"scenario.{kind}{i}") for i in sorted(indices[kind]))
            for kind in _EMITTERS
        }
        return RfScenario(tones=emitters["tone"], chirps=emitters["chirp"], hops=emitters["hop"])

    def build_models(self, seed: int | None = None) -> LinkModels:
        notch = self._build("notch") if self.get_bool("notch.enabled", False) else None
        return self._build(
            "link",
            modulator=self._build("modulator"),
            mrr=self._build("mrr"),
            mzi=self._build("mzi"),
            notch=notch,
            pd=self._build("pd", seed=self.seed if seed is None else seed),
        )

    def build_drive(self) -> SawtoothDrive:
        drive = self._build("drive")
        # every period would show each calibration tone once more
        one = drive.n_periods <= 1
        self.require(one, "key 'drive.n_periods'", "only one scan period is supported")
        return drive
