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

# run key -> (type, default, check); a check (op, bound) requires `value op
# bound`, and a key without a default (None) is required where it is read
_RUN = {
    "mode": (str, None, ("in", MODES)),
    "seed": (int, 1, (">=", 0)),
    "out_dir": (str, "out", None),
    "notch.enabled": (bool, False, None),
    "scan.sample_rate_hz": (float, 1e6, None),
    "calibration.lo_hz": (float, 10e9, (">", 0)),
    "calibration.hi_hz": (float, 20e9, None),
    "calibration.step_hz": (float, 1e9, (">", 0)),
    "measure.lo_hz": (float, 10e9, (">", 0)),
    "measure.hi_hz": (float, 20e9, None),
    "measure.step_hz": (float, 0.5e9, (">", 0)),
    "measure.method": (str, "fttm", ("in", ("fttm", "ftpm"))),
    "ifm.sample_rate_hz": (float, 1e9, None),
    "ifm.duration_s": (float, 400e-9, None),
    "ifm.band_lo_hz": (float, 10e9, None),
    "ifm.band_hi_hz": (float, 20e9, None),
    "ifm.mode": (str, "single_port", ("in", ("single_port", "ratio"))),
    "ifm.port": (int, 2, ("in", (1, 2))),
    "ifm.n_knots": (int, 4096, (">=", 2)),
    "ifm.noise_floor": (float, 0.05, (">=", 0)),
    "ifm.upper_limit_hz": (float, 20e9, None),
    "sweep.mode": (str, None, ("in", tuple(m for m in MODES if m != "sweep"))),
    "sweep.n_seeds": (int, 10, (">=", 1)),
}

# every key the parser accepts: the run keys, and the model keys, whose
# emitters repeat by an index without leading zeros (tone1, tone2, ...)
_KEY_RE = re.compile("|".join([re.escape(key) for key in _RUN] + [
    (rf"scenario\.{name}(0|[1-9]\d*)" if name in _EMITTERS else name) + rf"\.({'|'.join(keys)})"
    for name, (_, keys) in _SECTIONS.items()
]))
_BOOLS = dict.fromkeys(("true", "yes", "1", "on"), True)
_BOOLS.update(dict.fromkeys(("false", "no", "0", "off"), False))
_CHECKS = {">": lambda v, b: v > b, ">=": lambda v, b: v >= b, "in": lambda v, b: v in b}


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
        if not _KEY_RE.fullmatch(key):
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
        try:
            with open(path) as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"{path}: cannot read the config file: {exc}") from None
        return cls.from_text(text, source=str(path))

    def get(self, key):
        """Run key `key`'s value, parsed and checked, or its default if unset."""
        kind, default, check = _RUN[key]
        if key not in self.values:
            self.require(default is not None, f"key {key!r}", "missing required key")
            return default
        value = self._value(key, kind)
        if check is not None:
            op, bound = check
            ok = _CHECKS[op](value, bound)
            self.require(ok, f"key {key!r}", f"must be {op} {bound!r}, got {value!r}")
        return value

    @property
    def mode(self) -> str:
        return self.get("mode")

    def _number(self, key, token):
        try:
            value = float(token)
        except ValueError:
            raise ConfigError(f"{self.source}: key {key!r}: not a number: {token!r}")
        if not math.isfinite(value):
            raise ConfigError(f"{self.source}: key {key!r}: not a finite number: {token!r}")
        return value

    def _value(self, key, kind):
        """The value of a set key, parsed as kind, a model field's or run key's type."""
        token = self.values[key]
        if kind is str:
            return token
        if kind is bool:
            self.require(token.lower() in _BOOLS, f"key {key!r}", f"not a boolean: {token!r}")
            return _BOOLS[token.lower()]
        if kind is tuple:
            return tuple(self._number(key, tok) for tok in token.split(",") if tok.strip())
        value = self._number(key, token)
        if kind is float:
            return value
        self.require(value.is_integer(), f"key {key!r}", f"not an integer: {token!r}")
        # digits parse exactly, also past 2**53 where the float rounds
        return int(token) if token.isdigit() else int(value)

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
        notch = self._build("notch") if self.get("notch.enabled") else None
        return self._build(
            "link",
            modulator=self._build("modulator"),
            mrr=self._build("mrr"),
            mzi=self._build("mzi"),
            notch=notch,
            pd=self._build("pd", seed=self.get("seed") if seed is None else seed),
        )

    def build_drive(self) -> SawtoothDrive:
        drive = self._build("drive")
        # every period would show each calibration tone once more
        one = drive.n_periods <= 1
        self.require(one, "key 'drive.n_periods'", "only one scan period is supported")
        return drive
