"""Configuration-driven runner for the measurement pipelines.

Five modes cover the toolkit's experiments: calibrate writes the lookup
artifacts, measure sweeps tones through either pipeline, classify labels a
scenario from its scan trace, dynamic reconstructs instantaneous frequency,
and sweep repeats a mode over seeds. Every run is deterministic given
(config, seed); artifact CSVs are byte-stable.
"""

import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .rf_signals import RfScenario, TimeGrid, ToneSpec, sole_component_freq
from .classifier import ClassLabel, classify, compute_features
from .config import ConfigError, RunConfig
from .ifm_engine import (
    build_lut,
    estimate_static_frequency,
    extract_inst_freq,
    ifm_trace_to_csv,
    inst_freq_to_csv,
    lut_to_csv,
    simulate_ifm,
)
from .scan_engine import (
    _scan_axis,
    calibrate,
    detect_pulses,
    estimate_frequencies,
    estimate_hop_set,
    measure_span,
    scan_trace_to_csv,
    simulate_scan,
)
from .seeding import (
    STAGE_CLASSIFY,
    STAGE_DYNAMIC,
    STAGE_FTPM,
    STAGE_MEASURE,
    derive_seed,
)

__all__ = ["MetricsReport", "run", "rms_error", "expected_label"]


def rms_error(estimates, truths) -> float:
    """Root-mean-square deviation between two equal-length lists (Hz)."""
    est = np.asarray(estimates, dtype=float)
    tru = np.asarray(truths, dtype=float)
    if est.shape != tru.shape or est.size == 0:
        raise ValueError("estimates and truths must have equal nonzero length")
    return float(np.sqrt(np.mean((est - tru) ** 2)))


@dataclass
class MetricsReport:
    """Per-run metrics; rms_error_hz is always the RMS of per_tone_errors_hz
    when both are present."""

    mode: str
    seed: int
    per_tone_errors_hz: list = field(default_factory=list)
    rms_error_hz: float | None = None
    span_error_frac: float | None = None
    classification: str | None = None
    extras: dict = field(default_factory=dict)
    runtime_s: float = 0.0

    def lines(self) -> list:
        out = [f"mode = {self.mode}", f"seed = {self.seed}"]
        if self.per_tone_errors_hz:
            joined = ",".join(f"{e:.6e}" for e in self.per_tone_errors_hz)
            out.append(f"per_tone_errors_hz = {joined}")
        if self.rms_error_hz is not None:
            out.append(f"rms_error_hz = {self.rms_error_hz:.6e}")
        if self.span_error_frac is not None:
            out.append(f"span_error_frac = {self.span_error_frac:.6e}")
        if self.classification is not None:
            out.append(f"classification = {self.classification}")
        for key, value in self.extras.items():
            out.append(f"{key} = {value}")
        out.append(f"runtime_s = {self.runtime_s:.3f}")
        return out

    def save(self, path):
        with open(path, "w", newline="\n") as fh:
            fh.write("\n".join(self.lines()) + "\n")


def expected_label(scenario: RfScenario) -> ClassLabel:
    """Ground-truth label for a pure scenario (used by sweep aggregation)."""
    kinds = (len(scenario.tones) > 0) + (len(scenario.chirps) > 0) + (len(scenario.hops) > 0)
    if scenario.n_emitters == 0:
        return ClassLabel.UNKNOWN
    if kinds > 1:
        return ClassLabel.UNKNOWN  # mixed scenarios are out of the decision table
    if scenario.tones:
        return (
            ClassLabel.SINGLE_FREQUENCY
            if len(scenario.tones) == 1
            else ClassLabel.MULTIPLE_FREQUENCY
        )
    if scenario.chirps:
        return ClassLabel.CHIRPED
    return ClassLabel.FREQUENCY_HOPPING


def _scan_grid(cfg: RunConfig, drive) -> TimeGrid:
    rate = cfg.get_float("scan.sample_rate_hz", 1e6)
    n = int(round(rate * drive.period * drive.n_periods))
    with cfg.blame("key 'scan.sample_rate_hz'"):
        return TimeGrid(sample_rate=rate, n_samples=n)


def _ifm_grid(cfg: RunConfig) -> TimeGrid:
    rate = cfg.get_float("ifm.sample_rate_hz", 1e9)
    duration = cfg.get_float("ifm.duration_s", 400e-9)
    # the rate is checked on its own, so an empty grid is the duration's fault
    with cfg.blame("key 'ifm.sample_rate_hz'"):
        grid = TimeGrid(sample_rate=rate, n_samples=1)
    with cfg.blame("key 'ifm.duration_s'"):
        return replace(grid, n_samples=int(round(rate * duration)))


def _tone_list(cfg: RunConfig, section: str, lo: float, hi: float, step: float) -> np.ndarray:
    """Tones lo, lo + step, ... up to hi (Hz) from a section's lo_hz, hi_hz
    and step_hz keys, which default to the given values."""
    lo = cfg.get_float(f"{section}.lo_hz", lo)
    hi = cfg.get_float(f"{section}.hi_hz", hi)
    step = cfg.get_float(f"{section}.step_hz", step)
    if step <= 0:
        raise ConfigError(f"{cfg.source}: key '{section}.step_hz': must be > 0, got {step!r}")
    if hi < lo:
        raise ConfigError(
            f"{cfg.source}: key '{section}.hi_hz': {hi!r} is below {section}.lo_hz = {lo!r}"
        )
    return np.arange(lo, hi + step / 2, step)


def _build_table(cfg: RunConfig, seed: int):
    tones = _tone_list(cfg, "calibration", 10e9, 20e9, 1e9)
    if tones.size < 3:
        raise ConfigError(
            f"{cfg.source}: section 'calibration': {tones.size} tones, the fit needs at least 3"
        )
    drive = cfg.build_drive()
    grid = _scan_grid(cfg, drive)
    models = cfg.build_models(seed=seed)
    # the heater lag refuses too slow a rate; computing the run's shared scan
    # axis here reports that before any scan starts
    with cfg.blame("key 'scan.sample_rate_hz'"):
        _scan_axis(models.mrr, drive, grid)
    table = calibrate(models, drive, tones, grid)
    return table, models, drive, grid


def _build_ifm_lut(cfg: RunConfig, models):
    """(lookup table, noise floor, upper limit) of the ifm section."""
    noise_floor = cfg.get_float("ifm.noise_floor", 0.05)
    if noise_floor < 0:
        raise ConfigError(f"{cfg.source}: key 'ifm.noise_floor': must be >= 0, got {noise_floor!r}")
    band = (cfg.get_float("ifm.band_lo_hz", 10e9), cfg.get_float("ifm.band_hi_hz", 20e9))
    port = cfg.get_int("ifm.port", 2)
    if port not in (1, 2):
        raise ConfigError(f"{cfg.source}: key 'ifm.port': port must be 1 or 2, got {port}")
    n_knots = cfg.get_int("ifm.n_knots", 4096)
    if n_knots < 2:
        raise ConfigError(f"{cfg.source}: key 'ifm.n_knots': need at least 2 knots, got {n_knots}")
    with cfg.blame("section 'ifm'"):
        lut = build_lut(
            models.mzi,
            band=band,
            mode=cfg.get_str("ifm.mode", "single_port"),
            port=port,
            n_knots=n_knots,
            modulator=models.modulator,
        )
    upper_limit = cfg.get_float("ifm.upper_limit_hz", 20e9)
    if not lut.band[0] <= upper_limit <= lut.band[1]:
        raise ConfigError(
            f"{cfg.source}: key 'ifm.upper_limit_hz': {upper_limit!r} lies outside the "
            f"lookup band {lut.band[0]!r}..{lut.band[1]!r}"
        )
    return lut, noise_floor, upper_limit


def _run_calibrate(cfg: RunConfig, seed: int, out: Path, report: MetricsReport):
    table, models, _, _ = _build_table(cfg, seed)
    lut, _, _ = _build_ifm_lut(cfg, models)
    table.save(out / "calibration.txt")
    lut_to_csv(lut, out / "lut.csv")
    report.extras["fit_residual_rms_hz"] = f"{table.fit_residual_rms:.6e}"
    report.extras["valid_range_s"] = f"{table.valid_range[0]:.6e},{table.valid_range[1]:.6e}"


def _run_measure(cfg: RunConfig, seed: int, out: Path, report: MetricsReport):
    tones = _tone_list(cfg, "measure", 10e9, 20e9, 0.5e9)
    method = cfg.get_str("measure.method", "fttm")

    rows = []
    if method == "fttm":
        table, models, drive, grid = _build_table(cfg, seed)
        table.save(out / "calibration.txt")
        for i, f in enumerate(tones):
            models_i = replace(
                models, pd=replace(models.pd, seed=derive_seed(seed, STAGE_MEASURE, i))
            )
            trace = simulate_scan(RfScenario(tones=(ToneSpec(freq=f),)), models_i, drive, grid)
            events = detect_pulses(trace)
            ests = [e for e in estimate_frequencies(events, table) if e is not None]
            if len(ests) != 1:
                raise RuntimeError(
                    f"measure: tone {f / 1e9:.3f} GHz gave {len(ests)} in-band pulses"
                )
            rows.append((f, ests[0]))
    elif method == "ftpm":
        models = cfg.build_models(seed=seed)
        lut, noise_floor, _ = _build_ifm_lut(cfg, models)
        if lut.mode != "single_port":
            raise ConfigError(f"{cfg.source}: key 'ifm.mode': ftpm measure needs single_port")
        grid = _ifm_grid(cfg)
        for i, f in enumerate(tones):
            models_i = replace(
                models, pd=replace(models.pd, seed=derive_seed(seed, STAGE_FTPM, i))
            )
            trace = simulate_ifm(
                RfScenario(tones=(ToneSpec(freq=f),)), models_i, grid,
                port=lut.port, band=lut.band,
            )
            rows.append((f, estimate_static_frequency(trace, lut, noise_floor)))
    else:
        raise ConfigError(f"key 'measure.method': unknown method {method!r}")

    with open(out / "estimates.csv", "w", newline="\n") as fh:
        fh.write("truth_hz,estimate_hz,error_hz\n")
        for truth, est in rows:
            fh.write(f"{truth:.10e},{est:.10e},{est - truth:.10e}\n")
    report.per_tone_errors_hz = [est - truth for truth, est in rows]
    report.rms_error_hz = rms_error([e for _, e in rows], [t for t, _ in rows])


def _run_classify(cfg: RunConfig, seed: int, out: Path, report: MetricsReport):
    scenario = cfg.build_scenario()
    table, models, drive, grid = _build_table(cfg, seed)
    models_c = replace(models, pd=replace(models.pd, seed=derive_seed(seed, STAGE_CLASSIFY, 0)))
    trace = simulate_scan(scenario, models_c, drive, grid)
    scan_trace_to_csv(trace, out / "scan_trace.csv")
    events = detect_pulses(trace)
    features = compute_features(events, trace)
    label = classify(features)
    report.classification = label.token
    report.extras["n_envelopes"] = str(features.n_envelopes)
    report.extras["filled"] = str(features.filled).lower()
    if features.continuous is not None:
        report.extras["continuous"] = str(features.continuous).lower()

    if label in (ClassLabel.SINGLE_FREQUENCY, ClassLabel.MULTIPLE_FREQUENCY):
        ests = [e for e in estimate_frequencies(events, table) if e is not None]
        report.extras["estimated_freqs_hz"] = ",".join(f"{e:.6e}" for e in sorted(ests))
        truths = sorted(t.freq for t in scenario.tones)
        if len(ests) == len(truths):
            report.per_tone_errors_hz = [e - t for e, t in zip(sorted(ests), truths)]
            report.rms_error_hz = rms_error(sorted(ests), truths)
    elif label is ClassLabel.CHIRPED:
        span = measure_span(trace, table)
        report.extras["measured_span_hz"] = f"{span:.6e}"
        if len(scenario.chirps) == 1:
            truth = scenario.chirps[0].span
            report.span_error_frac = abs(span - truth) / truth
    elif label is ClassLabel.FREQUENCY_HOPPING:
        hops = estimate_hop_set(events, table)
        report.extras["estimated_hop_set_hz"] = ",".join(f"{h:.6e}" for h in hops)
        if len(scenario.hops) == 1:
            truths = sorted(scenario.hops[0].freqs)
            if len(hops) == len(truths):
                report.rms_error_hz = rms_error(hops, truths)
                report.per_tone_errors_hz = [e - t for e, t in zip(hops, truths)]


def _run_dynamic(cfg: RunConfig, seed: int, out: Path, report: MetricsReport):
    scenario = cfg.build_scenario()
    models = cfg.build_models(seed=derive_seed(seed, STAGE_DYNAMIC, 0))
    grid = _ifm_grid(cfg)
    lut, noise_floor, upper_limit = _build_ifm_lut(cfg, models)
    lut_to_csv(lut, out / "lut.csv")
    if lut.mode == "ratio":
        # ratio extraction compares the two complementary ports
        trace = simulate_ifm(scenario, models, grid, port=1, band=lut.band)
        models2 = replace(models, pd=replace(models.pd, seed=derive_seed(seed, STAGE_DYNAMIC, 1)))
        reference = simulate_ifm(scenario, models2, grid, port=2, band=lut.band)
    else:
        trace = simulate_ifm(scenario, models, grid, port=lut.port, band=lut.band)
        reference = None
    ifm_trace_to_csv(trace, out / "ifm_trace.csv")
    est = extract_inst_freq(
        trace, lut, noise_floor=noise_floor, upper_limit=upper_limit, reference_trace=reference
    )
    inst_freq_to_csv(est, out / "inst_freq.csv")

    # score samples that are not noise and where the scenario has one frequency
    diff = est.freq - sole_component_freq(scenario, grid)
    errors = diff[~np.isnan(diff)]
    if errors.size:
        report.per_tone_errors_hz = []
        report.rms_error_hz = float(np.sqrt(np.mean(errors**2)))
    report.extras["n_samples"] = str(est.freq.size)
    report.extras["n_noise_flagged"] = str(int(est.is_noise.sum()))


def _run_sweep(cfg: RunConfig, seed: int, out: Path, report: MetricsReport):
    target = cfg.get_str("sweep.mode")
    if target is None or target == "sweep":
        raise ConfigError("key 'sweep.mode': sweep needs a non-sweep target mode")
    if target not in ("calibrate", "measure", "classify", "dynamic"):
        raise ConfigError(f"key 'sweep.mode': unknown mode {target!r}")
    n_seeds = cfg.get_int("sweep.n_seeds", 10)
    if n_seeds < 1:
        raise ConfigError(f"{cfg.source}: key 'sweep.n_seeds': need at least 1 seed, got {n_seeds}")
    scenario = cfg.build_scenario()
    want = expected_label(scenario).token

    rows = []
    for k in range(n_seeds):
        sub = MetricsReport(mode=target, seed=seed + k)
        sub_out = out / f"seed_{seed + k}"
        sub_out.mkdir(parents=True, exist_ok=True)
        _MODE_RUNNERS[target](cfg, seed + k, sub_out, sub)
        sub.save(sub_out / "report.txt")
        rows.append(sub)

    rms_values = [r.rms_error_hz for r in rows if r.rms_error_hz is not None]
    if rms_values:
        report.rms_error_hz = float(np.sqrt(np.mean(np.square(rms_values))))
        report.extras["rms_error_hz_max"] = f"{max(rms_values):.6e}"
    span_values = [r.span_error_frac for r in rows if r.span_error_frac is not None]
    if span_values:
        report.span_error_frac = float(np.mean(span_values))
        report.extras["span_error_frac_max"] = f"{max(span_values):.6e}"
    labels = [r.classification for r in rows if r.classification is not None]
    if labels:
        correct = sum(1 for lab in labels if lab == want)
        report.classification = want
        report.extras["classification_accuracy"] = f"{correct / len(labels):.4f}"
    report.extras["n_seeds"] = str(n_seeds)

    with open(out / "sweep.csv", "w", newline="\n") as fh:
        fh.write("seed,rms_error_hz,span_error_frac,classification\n")
        for r in rows:
            rms = f"{r.rms_error_hz:.10e}" if r.rms_error_hz is not None else ""
            spn = f"{r.span_error_frac:.10e}" if r.span_error_frac is not None else ""
            fh.write(f"{r.seed},{rms},{spn},{r.classification or ''}\n")


_MODE_RUNNERS = {
    "calibrate": _run_calibrate,
    "measure": _run_measure,
    "classify": _run_classify,
    "dynamic": _run_dynamic,
    "sweep": _run_sweep,
}


def run(cfg: RunConfig, seed: int | None = None, out_dir=None) -> MetricsReport:
    """Execute a configured run; returns the metrics and writes artifacts.

    seed and out_dir override the config's values (CLI flags map here).
    """
    mode = cfg.mode
    seed = cfg.seed if seed is None else int(seed)
    out = Path(out_dir if out_dir is not None else cfg.get_str("out_dir", "out"))
    out.mkdir(parents=True, exist_ok=True)

    report = MetricsReport(mode=mode, seed=seed)
    started = time.perf_counter()
    try:
        _MODE_RUNNERS[mode](cfg, seed, out, report)
    except ConfigError:
        raise
    except Exception as exc:
        raise RuntimeError(f"{mode} stage failed: {exc}") from exc
    finally:
        # the scan axis is shared by the scans of one run, not across runs
        _scan_axis.cache_clear()
    report.runtime_s = time.perf_counter() - started
    report.save(out / "report.txt")
    return report
