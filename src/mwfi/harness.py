"""Configuration-driven runner for the measurement pipelines.

Five modes cover the toolkit's experiments: calibrate writes the lookup
artifacts, measure sweeps tones through either pipeline, classify labels a
scenario from its scan trace, dynamic reconstructs instantaneous frequency,
and sweep repeats a mode over seeds, keeping each seed's report but not its
per-sample traces or its lookup table. Every run is deterministic given
(config, seed); artifact CSVs are byte-stable.
"""

import time
from dataclasses import dataclass, field, replace
from functools import partial
from pathlib import Path

import numpy as np

from ._csv import write_columns
from .rf_signals import RfScenario, TimeGrid, ToneSpec, sole_component_freq
from .classifier import FILL_THRESHOLD, ClassLabel, classify, compute_features
from .config import RunConfig
from .ifm_engine import (
    AcfLut,
    build_lut,
    check_hop_sampling,
    estimate_static_frequency,
    extract_inst_freq,
    ifm_trace_to_csv,
    inst_freq_to_csv,
    lut_to_csv,
    simulate_ifm,
)
from .photonic_link import LinkModels
from .scan_engine import (
    CalibrationTable,
    SawtoothDrive,
    _scan_axis,
    calibrate,
    detect_pulses,
    estimate_frequencies,
    estimate_hop_set,
    measure_span,
    scan_trace_to_csv,
    simulate_scan,
    tone_scans,
)
from .seeding import (
    STAGE_CLASSIFY,
    STAGE_DYNAMIC,
    STAGE_FTPM,
    STAGE_MEASURE,
    derive_seed,
)

__all__ = ["MetricsReport", "RunPlan", "build_plan", "run", "rms_error", "expected_label"]


def rms_error(estimates, truths) -> float:
    """Root-mean-square deviation between two equal-length lists (Hz)."""
    est = np.asarray(estimates, dtype=float)
    tru = np.asarray(truths, dtype=float)
    if est.shape != tru.shape or est.size == 0:
        raise ValueError("estimates and truths must have equal nonzero length")
    return float(np.sqrt(np.mean((est - tru) ** 2)))


@dataclass
class MetricsReport:
    """Per-run metrics; score sets per_tone_errors_hz, so rms_error_hz is
    always their RMS when both are present."""

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

    def score(self, estimates, truths):
        """Set per-tone errors and their RMS where estimates and truths pair off."""
        if 0 < len(truths) == len(estimates):
            self.per_tone_errors_hz = np.subtract(estimates, truths).tolist()
            self.rms_error_hz = rms_error(estimates, truths)


def expected_label(scenario: RfScenario) -> ClassLabel:
    """Ground-truth label for a pure scenario (used by sweep aggregation)."""
    kinds = (len(scenario.tones) > 0) + (len(scenario.chirps) > 0) + (len(scenario.hops) > 0)
    if kinds != 1:
        return ClassLabel.UNKNOWN  # no emitter, or a mix outside the decision table
    if scenario.tones:
        return (
            ClassLabel.SINGLE_FREQUENCY
            if len(scenario.tones) == 1
            else ClassLabel.MULTIPLE_FREQUENCY
        )
    if scenario.chirps:
        return ClassLabel.CHIRPED
    return ClassLabel.FREQUENCY_HOPPING


@dataclass(frozen=True)
class RunPlan:
    """Every setting a run uses, read and checked before any stage starts.

    Fields the mode does not use stay None. The detector seed of models is a
    placeholder: each stage draws its noise from its own seed (seeded_models).
    """

    mode: str
    models: LinkModels | None = None
    scenario: RfScenario | None = None
    tones: np.ndarray | None = None  # measure tones
    method: str | None = None
    drive: SawtoothDrive | None = None  # FTTM scan
    scan_grid: TimeGrid | None = None
    cal_tones: np.ndarray | None = None
    ifm_grid: TimeGrid | None = None  # FTPM / IFM
    lut: AcfLut | None = None
    noise_floor: float | None = None
    upper_limit: float | None = None
    target: "RunPlan | None" = None  # sweep
    n_seeds: int | None = None

    def seeded_models(self, seed: int) -> LinkModels:
        """The models with the detector noise drawn from seed."""
        return replace(self.models, pd=replace(self.models.pd, seed=seed))


def _tone_list(cfg: RunConfig, section: str) -> np.ndarray:
    """Tones lo, lo + step, ... up to hi (Hz) from a section's lo_hz, hi_hz
    and step_hz keys."""
    lo, hi, step = (cfg.get(f"{section}.{key}") for key in ("lo_hz", "hi_hz", "step_hz"))
    cfg.require(hi >= lo, f"key '{section}.hi_hz'", f"{hi!r} is below {section}.lo_hz = {lo!r}")
    return np.arange(lo, hi + step / 2, step)


def build_plan(cfg: RunConfig, mode: str | None = None) -> RunPlan:
    """Read and check every setting that mode (by default the config's) uses.

    A bad setting raises ConfigError naming its key, or its section where
    several keys meet. FTTM plans compute the run's scan axis, which run
    clears when the run ends.
    """
    mode = cfg.get("mode") if mode is None else mode
    if mode == "sweep":
        target, n_seeds = cfg.get("sweep.mode"), cfg.get("sweep.n_seeds")
        scenario = cfg.build_scenario()
        return RunPlan(mode, scenario=scenario, target=build_plan(cfg, target), n_seeds=n_seeds)

    models = cfg.build_models(seed=0)
    plan = dict(models=models)
    if mode in ("classify", "dynamic"):
        plan["scenario"] = cfg.build_scenario()
    if mode == "measure":
        plan.update(tones=_tone_list(cfg, "measure"), method=cfg.get("measure.method"))
    if mode in ("calibrate", "classify") or plan.get("method") == "fttm":
        tones = _tone_list(cfg, "calibration")
        enough = tones.size >= 3
        cfg.require(enough, "section 'calibration'", f"{tones.size} tones, the fit needs 3")
        drive, rate = cfg.build_drive(), cfg.get("scan.sample_rate_hz")
        n = round(rate * drive.period * drive.n_periods)
        with cfg.blame("key 'scan.sample_rate_hz'"):
            grid = TimeGrid(sample_rate=rate, n_samples=n)
        plan.update(drive=drive, scan_grid=grid, cal_tones=tones)
    if mode in ("calibrate", "dynamic") or plan.get("method") == "ftpm":
        band = (cfg.get("ifm.band_lo_hz"), cfg.get("ifm.band_hi_hz"))
        lut_mode, port, n_knots = (cfg.get(f"ifm.{key}") for key in ("mode", "port", "n_knots"))
        with cfg.blame("section 'ifm'"):
            lut = build_lut(models.mzi, band, lut_mode, port, n_knots, models.modulator)
        upper_limit = cfg.get("ifm.upper_limit_hz")
        cfg.require(
            lut.band[0] <= upper_limit <= lut.band[1], "key 'ifm.upper_limit_hz'",
            f"{upper_limit!r} lies outside the lookup band {lut.band[0]!r}..{lut.band[1]!r}",
        )
        plan.update(lut=lut, noise_floor=cfg.get("ifm.noise_floor"), upper_limit=upper_limit)
    if mode == "dynamic" or plan.get("method") == "ftpm":
        rate, duration = cfg.get("ifm.sample_rate_hz"), cfg.get("ifm.duration_s")
        # the rate is checked on its own, so an empty grid is the duration's fault
        with cfg.blame("key 'ifm.sample_rate_hz'"):
            grid = TimeGrid(sample_rate=rate, n_samples=1)
            check_hop_sampling(plan.get("scenario", RfScenario()), grid)
        with cfg.blame("key 'ifm.duration_s'"):
            plan["ifm_grid"] = replace(grid, n_samples=round(rate * duration))
    single = plan.get("method") != "ftpm" or plan["lut"].mode == "single_port"
    cfg.require(single, "key 'ifm.mode'", "ftpm measure needs single_port")
    if "scan_grid" in plan:
        # last, since it loads scipy: the heater lag refuses too slow a rate,
        # and the run's scans share this axis
        with cfg.blame("key 'scan.sample_rate_hz'"):
            f_s = _scan_axis(models.mrr, plan["drive"], plan["scan_grid"])[0]
        # a tone the resonance never reaches gives at most a tail "pulse"
        lo, hi = float(f_s.min()), float(f_s.max())
        for section, key in (("calibration", "cal_tones"), ("measure", "tones")):
            for f in plan.get(key, ()):
                cfg.require(lo <= f <= hi, f"section '{section}'", f"tone {f / 1e9:.3f} GHz"
                            f" lies outside the scan's reach {lo / 1e9:.3f}..{hi / 1e9:.3f} GHz")
    return RunPlan(mode, **plan)


def _fit_quality(plan: RunPlan, table: CalibrationTable) -> dict:
    """The calibration fit's residual and valid delay range, as report extras.

    A quadratic through 3 tones has no residual degrees of freedom, so its
    residual is rounding noise and is left out.
    """
    extras = {}
    if plan.cal_tones.size > 3:
        extras["fit_residual_rms_hz"] = f"{table.fit_residual_rms:.6e}"
    extras["valid_range_s"] = f"{table.valid_range[0]:.6e},{table.valid_range[1]:.6e}"
    return extras


def _run_calibrate(plan: RunPlan, seed: int, report: MetricsReport) -> dict:
    table = calibrate(plan.seeded_models(seed), plan.drive, plan.cal_tones, plan.scan_grid)
    report.extras.update(_fit_quality(plan, table))
    return {"calibration.txt": table.save, "lut.csv": partial(lut_to_csv, plan.lut)}


def _run_measure(plan: RunPlan, seed: int, report: MetricsReport) -> dict:
    ests, writes = np.empty(plan.tones.size), {}
    if plan.method == "fttm":
        models = plan.seeded_models(seed)
        table = calibrate(models, plan.drive, plan.cal_tones, plan.scan_grid)
        scans = tone_scans(models, plan.drive, plan.scan_grid, plan.tones, STAGE_MEASURE)
        for i, (f, events) in enumerate(zip(plan.tones, scans)):
            found = estimate_frequencies(events, table)
            if len(found) != 1:
                raise RuntimeError(f"tone {f / 1e9:.3f} GHz gave {len(found)} in-band pulses")
            ests[i] = found[0]
        writes["calibration.txt"] = table.save
    else:
        for i, f in enumerate(plan.tones):
            tone = RfScenario(tones=(ToneSpec(freq=f),))
            models = plan.seeded_models(derive_seed(seed, STAGE_FTPM, i))
            trace = simulate_ifm(tone, models, plan.ifm_grid, plan.lut.port, plan.lut.band)
            ests[i] = estimate_static_frequency(trace, plan.lut, plan.noise_floor)

    report.score(ests, plan.tones)
    header = "truth_hz,estimate_hz,error_hz\n"
    columns = (plan.tones, ests, report.per_tone_errors_hz)
    writes["estimates.csv"] = lambda path: write_columns(path, header, columns)
    return writes


def _run_classify(plan: RunPlan, seed: int, report: MetricsReport) -> dict:
    table = calibrate(plan.seeded_models(seed), plan.drive, plan.cal_tones, plan.scan_grid)
    models = plan.seeded_models(derive_seed(seed, STAGE_CLASSIFY, 0))
    trace = simulate_scan(plan.scenario, models, plan.drive, plan.scan_grid)
    events = detect_pulses(trace)
    features = compute_features(events, trace)
    label = classify(features)
    # the decision's inputs, so a run without its trace can be diagnosed
    report.classification = label.token
    report.extras.update(_fit_quality(plan, table))
    if trace.level is not None:
        # the detection threshold is the floor plus THRESHOLD_FRAC of full
        # scale, and the trace holds a signal because full scale > 8 sigma
        floor, fullscale, sigma = trace.level
        report.extras["detect_floor_w"] = f"{floor:.6e}"
        report.extras["detect_full_scale_w"] = f"{fullscale:.6e}"
        report.extras["detect_noise_sigma_w"] = f"{sigma:.6e}"
    report.extras["n_envelopes"] = str(features.n_envelopes)
    if events:
        fill = max(ev.fill_randomness for ev in events)
        report.extras["fill_randomness_max"] = f"{fill:.6e}"
    report.extras["fill_threshold"] = f"{FILL_THRESHOLD:.6e}"
    report.extras["filled"] = str(features.filled).lower()
    if features.continuous is not None:
        report.extras["continuous"] = str(features.continuous).lower()

    if label in (ClassLabel.SINGLE_FREQUENCY, ClassLabel.MULTIPLE_FREQUENCY):
        ests = sorted(estimate_frequencies(events, table))
        report.extras["estimated_freqs_hz"] = ",".join(f"{e:.6e}" for e in ests)
        report.score(ests, sorted(t.freq for t in plan.scenario.tones))
    elif label is ClassLabel.CHIRPED:
        span = measure_span(trace, table)
        report.extras["measured_span_hz"] = f"{span:.6e}"
        if len(plan.scenario.chirps) == 1:
            truth = plan.scenario.chirps[0].span
            report.span_error_frac = abs(span - truth) / truth
    elif label is ClassLabel.FREQUENCY_HOPPING:
        hops = estimate_hop_set(events, table)
        report.extras["estimated_hop_set_hz"] = ",".join(f"{h:.6e}" for h in hops)
        if len(plan.scenario.hops) == 1:
            report.score(hops, sorted(plan.scenario.hops[0].freqs))
    return {"scan_trace.csv": partial(scan_trace_to_csv, trace)}


def _run_dynamic(plan: RunPlan, seed: int, report: MetricsReport) -> dict:
    scenario, grid, lut = plan.scenario, plan.ifm_grid, plan.lut
    # the k-th port the table reads draws its noise from (seed, STAGE_DYNAMIC, k)
    seeds = (derive_seed(seed, STAGE_DYNAMIC, k) for k in range(len(lut.ports)))
    trace, *reference = [
        simulate_ifm(scenario, plan.seeded_models(s), grid, port, lut.band)
        for s, port in zip(seeds, lut.ports)
    ]
    est = extract_inst_freq(trace, lut, plan.noise_floor, plan.upper_limit, *reference)

    # score samples that are not noise and where the scenario has one frequency
    diff = est.freq - sole_component_freq(scenario, grid)
    errors = diff[~np.isnan(diff)]
    if errors.size:
        report.rms_error_hz = float(np.sqrt(np.mean(errors**2)))
    report.extras["n_samples"] = str(est.freq.size)
    report.extras["n_noise_flagged"] = str(int(est.is_noise.sum()))
    return {"lut.csv": partial(lut_to_csv, lut), "ifm_trace.csv": partial(ifm_trace_to_csv, trace),
            "inst_freq.csv": partial(inst_freq_to_csv, est)}


# what a sweep sub-run leaves out: the per-sample traces, which the target mode
# rebuilds byte for byte at the sub-run's seed, and lut.csv, which no seed changes
_SWEEP_DROPS = frozenset({"scan_trace.csv", "ifm_trace.csv", "inst_freq.csv", "lut.csv"})


def _run_sweep(plan: RunPlan, seed: int, out: Path, report: MetricsReport) -> dict:
    rows = [
        _run_mode(plan.target, seed + k, out / f"seed_{seed + k}", drop=_SWEEP_DROPS)
        for k in range(plan.n_seeds)
    ]

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
        want = expected_label(plan.scenario).token
        correct = sum(1 for lab in labels if lab == want)
        report.classification = want
        report.extras["classification_accuracy"] = f"{correct / len(labels):.4f}"
    report.extras["n_seeds"] = str(plan.n_seeds)

    table = "seed,rms_error_hz,span_error_frac,classification\n"
    for r in rows:
        rms = f"{r.rms_error_hz:.10e}" if r.rms_error_hz is not None else ""
        spn = f"{r.span_error_frac:.10e}" if r.span_error_frac is not None else ""
        table += f"{r.seed},{rms},{spn},{r.classification or ''}\n"
    return {"sweep.csv": lambda path: path.write_text(table, newline="\n")}


_MODE_RUNNERS = {
    "calibrate": _run_calibrate,
    "measure": _run_measure,
    "classify": _run_classify,
    "dynamic": _run_dynamic,
}


def _run_mode(plan: RunPlan, seed: int, out: Path, drop=frozenset()) -> MetricsReport:
    """Run plan's mode at seed, then write into out its artifacts not named in
    drop and its timed report.txt. Runners return their artifacts as {file
    name: write(path)} and write nothing, so a failed stage leaves out as is."""
    started = time.perf_counter()
    report = MetricsReport(mode=plan.mode, seed=seed)
    if plan.mode == "sweep":
        writes = _run_sweep(plan, seed, out, report)
    else:
        writes = _MODE_RUNNERS[plan.mode](plan, seed, report)
    out.mkdir(parents=True, exist_ok=True)
    for name, write in writes.items():
        if name not in drop:
            write(out / name)
    report.runtime_s = time.perf_counter() - started
    (out / "report.txt").write_text("\n".join(report.lines()) + "\n", newline="\n")
    return report


def run(cfg: RunConfig, seed: int | None = None, out_dir=None) -> MetricsReport:
    """Execute a configured run; returns the metrics and writes artifacts.

    seed and out_dir override the config's values (CLI flags map here).
    The run's plan is built first, so a ConfigError leaves out_dir untouched.
    """
    if seed is not None:
        # the override is checked as the config's own seed is, under its own source
        RunConfig({"seed": str(seed)}, source="seed override").get("seed")
        cfg = replace(cfg, values={**cfg.values, "seed": str(seed)})
    try:
        plan = build_plan(cfg)
        seed = cfg.get("seed")
        out = Path(out_dir if out_dir is not None else cfg.get("out_dir"))
        try:
            return _run_mode(plan, seed, out)
        except Exception as exc:
            raise RuntimeError(f"{plan.mode} stage failed: {exc}") from exc
    finally:
        # the scan axis is shared by the scans of one run, not across runs
        _scan_axis.cache_clear()
