"""Benchmark workloads: configs generated from a seed, and output checks.

Each workload is a fixed list of CLI invocations (one pass). The workload
seed sets every invocation's run seed, so the same seed gives the same
configs, the same simulated traces and byte-identical artifacts.

- fttm_measure: FTTM tone sweep (the fig3a preset) on two consecutive seeds.
  Nearly all host time is scan physics and pulse detection; it writes a few
  KB, so writer or classifier changes should leave it unchanged.
- classify_sweep: sweep mode with classify over the two-tone (fig4a), chirp
  (fig5a) and hop (fig5e) scenarios. It re-calibrates per seed and writes
  8-23 MB of trace CSV per scenario, and drives the filled-envelope,
  span and hop estimation paths that fttm_measure never reaches.
- ifm_dynamic: dynamic mode on the fig6f hop + jammer scenario (bandstop on)
  and the fig6c chirp, lengthened to 200 us at 1 GS/s. It bypasses
  scan_engine and classifier entirely, so scan-side changes should predict
  no change here.
"""

import hashlib
import os
from dataclasses import dataclass

# acceptance bounds of tests/test_acceptance.py
FTTM_RMS_MAX_HZ = 0.9e9
SPAN_ERROR_MAX = 0.03
HOP_ERROR_MAX_HZ = 250e6
DYNAMIC_RMS_MAX_HZ = 0.5e9

SCAN_PERIOD_S = 0.25  # default drive.period_s, one period per scan
CAL_TONES = 11  # default calibration grid: 10-20 GHz in 1 GHz steps
IFM_DURATION_S = 200e-6

_FTTM = """\
mode = measure
measure.method = fttm
measure.lo_hz = 10e9
measure.hi_hz = 20e9
measure.step_hz = 0.5e9
"""

_TWO_TONE = """\
mode = sweep
sweep.mode = classify
sweep.n_seeds = 1
scenario.tone1.freq_hz = 10e9
scenario.tone2.freq_hz = 15e9
"""

_CHIRP = """\
mode = sweep
sweep.mode = classify
sweep.n_seeds = 1
scan.sample_rate_hz = 2718281
scenario.chirp1.center_hz = 15e9
scenario.chirp1.span_hz = 4e9
scenario.chirp1.pulse_width_s = 1.6e-6
scenario.chirp1.repeat_interval_s = 4e-6
"""

_HOP = """\
mode = sweep
sweep.mode = classify
sweep.n_seeds = 1
scan.sample_rate_hz = 2718281
scenario.hop1.freqs_hz = 10e9,13e9,18e9
scenario.hop1.dwell_s = 80e-9
"""

_HOP_JAM = f"""\
mode = dynamic
scenario.hop1.freqs_hz = 10e9,13e9,15e9,17e9
scenario.hop1.dwell_s = 80e-9
notch.enabled = true
notch.centers_hz = 9.75e9,10e9,10.25e9
notch.fwhm_each_hz = 300e6
notch.rejection_db = 20
ifm.sample_rate_hz = 1e9
ifm.duration_s = {IFM_DURATION_S!r}
"""

_DYN_CHIRP = f"""\
mode = dynamic
scenario.chirp1.center_hz = 15e9
scenario.chirp1.span_hz = 6e9
scenario.chirp1.pulse_width_s = 160e-9
scenario.chirp1.repeat_interval_s = 200e-9
ifm.sample_rate_hz = 1e9
ifm.duration_s = {IFM_DURATION_S!r}
"""


def read_report(path):
    """report.txt as a key -> value dict."""
    with open(path) as fh:
        return dict(line.split(" = ", 1) for line in fh.read().splitlines() if " = " in line)


def _floats(text):
    return [float(tok) for tok in text.split(",") if tok]


def _check_fttm(out, seed):
    rep = read_report(os.path.join(out, "report.txt"))
    errors = _floats(rep.get("per_tone_errors_hz", ""))
    if len(errors) != 21:
        return [f"{len(errors)} per-tone errors, want 21"]
    rms = float(rep["rms_error_hz"])
    return [] if rms <= FTTM_RMS_MAX_HZ else [f"FTTM rms {rms:.4e} Hz > {FTTM_RMS_MAX_HZ:.1e}"]


def _sweep_check(label, check_kind):
    def check(out, seed):
        sub = read_report(os.path.join(out, f"seed_{seed}", "report.txt"))
        got = sub.get("classification")
        if got != label:
            return [f"classified {got!r}, want {label!r}"]
        return check_kind(sub)

    return check


def _two_tone_ok(rep):
    if "rms_error_hz" not in rep:
        return [f"estimated {rep.get('estimated_freqs_hz')!r}, want 2 tones"]
    rms = float(rep["rms_error_hz"])
    return [] if rms <= FTTM_RMS_MAX_HZ else [f"two-tone rms {rms:.4e} Hz > {FTTM_RMS_MAX_HZ:.1e}"]


def _chirp_ok(rep):
    if "span_error_frac" not in rep:
        return ["no span estimate"]
    err = float(rep["span_error_frac"])
    return [] if err < SPAN_ERROR_MAX else [f"span error {err:.4f} >= {SPAN_ERROR_MAX}"]


def _hop_ok(rep):
    errors = _floats(rep.get("per_tone_errors_hz", ""))
    if len(errors) != 3:
        return [f"hop set {rep.get('estimated_hop_set_hz')!r}, want 3 frequencies"]
    worst = max(abs(e) for e in errors)
    return [] if worst < HOP_ERROR_MAX_HZ else [f"hop error {worst:.4e} Hz >= {HOP_ERROR_MAX_HZ:.1e}"]


def _check_dynamic(out, seed):
    rep = read_report(os.path.join(out, "report.txt"))
    if "rms_error_hz" not in rep:
        return ["no scored samples"]
    rms = float(rep["rms_error_hz"])
    return [] if rms <= DYNAMIC_RMS_MAX_HZ else [f"dynamic rms {rms:.4e} Hz > {DYNAMIC_RMS_MAX_HZ:.1e}"]


@dataclass(frozen=True)
class Invocation:
    """One `mwfi <mode> --config <file> --seed <seed> --out <dir>` call."""

    name: str
    mode: str
    config: str  # file name in the config directory
    seed: int
    samples: int  # simulated trace samples (calibration scans included)
    check: object  # callable(out_dir, seed) -> list of failure reasons

    def argv(self, config_dir, out_dir):
        return [self.mode, "--config", os.path.join(config_dir, self.config),
                "--seed", str(self.seed), "--out", out_dir]


def _scan_samples(rate, n_scans):
    return n_scans * int(round(rate * SCAN_PERIOD_S))


WORKLOADS = ("fttm_measure", "classify_sweep", "ifm_dynamic")


def build(workload, seed, config_dir):
    """Write the workload's configs into config_dir; return its invocations."""
    if workload == "fttm_measure":
        files = {"fttm.cfg": _FTTM}
        n_fttm = _scan_samples(1e6, CAL_TONES + 21)
        calls = [
            Invocation(f"fttm@{s}", "measure", "fttm.cfg", s, n_fttm, _check_fttm)
            for s in (seed, seed + 1)
        ]
    elif workload == "classify_sweep":
        files = {"two_tone.cfg": _TWO_TONE, "chirp.cfg": _CHIRP, "hop.cfg": _HOP}
        calls = [
            Invocation(f"two_tone@{seed}", "sweep", "two_tone.cfg", seed,
                       _scan_samples(1e6, CAL_TONES + 1), _sweep_check("multiple", _two_tone_ok)),
            Invocation(f"chirp@{seed}", "sweep", "chirp.cfg", seed,
                       _scan_samples(2718281, CAL_TONES + 1), _sweep_check("chirped", _chirp_ok)),
            Invocation(f"hop@{seed}", "sweep", "hop.cfg", seed,
                       _scan_samples(2718281, CAL_TONES + 1), _sweep_check("hopping", _hop_ok)),
        ]
    elif workload == "ifm_dynamic":
        files = {"hop_jam.cfg": _HOP_JAM, "chirp.cfg": _DYN_CHIRP}
        n_ifm = int(round(1e9 * IFM_DURATION_S))
        calls = [
            Invocation(f"{name}@{seed}", "dynamic", f"{name}.cfg", seed, n_ifm, _check_dynamic)
            for name in ("hop_jam", "chirp")
        ]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    os.makedirs(config_dir, exist_ok=True)
    for name, text in files.items():
        with open(os.path.join(config_dir, name), "w", newline="\n") as fh:
            fh.write(text)
    return calls


def digest_dir(root):
    """(sha256 hex, bytes) over every file under root, by relative path.

    report.txt files are hashed without their runtime_s line, the one value
    that is not deterministic."""
    h = hashlib.sha256()
    total = 0
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames.sort()
        for fname in sorted(filenames):
            path = os.path.join(dirpath, fname)
            with open(path, "rb") as fh:
                data = fh.read()
            total += len(data)
            if fname == "report.txt":
                data = b"".join(
                    line for line in data.splitlines(keepends=True)
                    if not line.startswith(b"runtime_s =")
                )
            rel = os.path.relpath(path, root).replace(os.sep, "/")
            h.update(rel.encode() + b"\0" + str(len(data)).encode() + b"\0" + data)
    return h.hexdigest(), total
