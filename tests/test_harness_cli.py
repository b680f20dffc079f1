import dataclasses
import inspect
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from mwfi.classifier import ClassLabel
from mwfi.cli import main
from mwfi.config import _EMITTERS, _RUN, _SECTIONS, MODES, ConfigError, RunConfig
from mwfi.harness import _SWEEP_DROPS, MetricsReport, build_plan, expected_label, rms_error, run
from mwfi.ifm_engine import DEFAULT_BAND, build_lut, extract_inst_freq
from mwfi.photonic_link import LinkModels, PdModel
from mwfi.presets import list_presets, preset_path
from mwfi.rf_signals import ChirpSpec, HopSpec, RfScenario, ToneSpec
from mwfi.scan_engine import SawtoothDrive, _scan_axis


class TestRmsError:
    def test_identical_lists_zero(self):
        assert rms_error([10e9, 15e9], [10e9, 15e9]) == 0.0

    def test_known_mixture(self):
        # {+0.3, -0.4, +0.5} GHz -> sqrt(0.5/3) GHz
        est = [10.3e9, 11.6e9, 12.5e9]
        truth = [10e9, 12e9, 12e9]
        assert rms_error(est, truth) == pytest.approx(408248290.463863)

    def test_single_pair(self):
        assert rms_error([10.4e9], [10.0e9]) == pytest.approx(0.4e9)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            rms_error([1.0, 2.0], [1.0])
        with pytest.raises(ValueError):
            rms_error([], [])


class TestConfigParsing:
    def test_unknown_key_names_line(self):
        with pytest.raises(ConfigError, match=r"cfg:3: unknown key 'mrr\.fhwm_hz'"):
            RunConfig.from_text("mode = measure\nseed = 1\nmrr.fhwm_hz = 875e6\n", source="cfg")

    def test_missing_equals_names_line(self):
        with pytest.raises(ConfigError, match="cfg:2"):
            RunConfig.from_text("mode = measure\njust words\n", source="cfg")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            RunConfig.from_text("mode = measure\nmode = classify\n")

    def test_invalid_mode_names_field(self):
        cfg = RunConfig.from_text("mode = warp\n")
        with pytest.raises(ConfigError, match="key 'mode'.*warp"):
            cfg.get("mode")

    def test_missing_mode_rejected(self):
        with pytest.raises(ConfigError, match="mode"):
            RunConfig.from_text("seed = 1\n").get("mode")

    def test_comments_and_blanks_ignored(self):
        cfg = RunConfig.from_text("# header\n\nmode = classify  # trailing\n")
        assert cfg.get("mode") == "classify"

    def test_bad_number_reported(self):
        cfg = RunConfig.from_text("mode = measure\npd.noise_sigma = lots\n")
        with pytest.raises(ConfigError, match="pd.noise_sigma"):
            cfg.build_models()

    def test_non_integral_integer_rejected(self):
        cfg = RunConfig.from_text("mode = sweep\nsweep.n_seeds = 2.9\n")
        with pytest.raises(ConfigError, match="sweep.n_seeds"):
            cfg.get("sweep.n_seeds")
        for text in ("4096", "4096.0", "1e3"):
            cfg = RunConfig.from_text(f"mode = calibrate\nifm.n_knots = {text}\n")
            assert cfg.get("ifm.n_knots") == int(float(text))

    def test_readme_configuration_example_builds(self):
        # a key the parser stops accepting cannot stay documented
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = readme.split("## Configuration", 1)[1].split("```\n", 2)[1]
        cfg = RunConfig.from_text(block, source="README.md")
        assert cfg.get("mode") == "classify"
        cfg.build_scenario()
        cfg.build_models()
        cfg.build_drive()
        for key in _RUN:
            assert key in cfg.values, f"README lacks {key}"
        # every model key is documented; an emitter key by its name
        for section, (_, keys) in _SECTIONS.items():
            for key in keys:
                if section in _EMITTERS:
                    assert key in block, f"README lacks the {section} key {key}"
                else:
                    assert f"{section}.{key}" in cfg.values, f"README lacks {section}.{key}"

    def test_no_model_keys_take_model_defaults(self):
        cfg = RunConfig.from_text("mode = classify\nseed = 7\n")
        assert cfg.build_models() == LinkModels(pd=PdModel(seed=7))
        assert cfg.build_drive() == SawtoothDrive()

    def test_bool_parsing(self):
        cfg = RunConfig.from_text("mode = dynamic\nnotch.enabled = true\n")
        assert cfg.get("notch.enabled") is True
        cfg = RunConfig.from_text("mode = dynamic\nnotch.enabled = maybe\n")
        with pytest.raises(ConfigError, match="boolean"):
            cfg.get("notch.enabled")


class TestScenarioBuilding:
    def test_full_scenario(self):
        cfg = RunConfig.from_text(
            "mode = classify\n"
            "scenario.tone1.freq_hz = 11e9\n"
            "scenario.tone1.amplitude = 0.5\n"
            "scenario.tone2.freq_hz = 16e9\n"
            "scenario.chirp1.center_hz = 15e9\n"
            "scenario.chirp1.span_hz = 4e9\n"
            "scenario.chirp1.pulse_width_s = 1.6e-6\n"
            "scenario.chirp1.repeat_interval_s = 4e-6\n"
            "scenario.hop1.freqs_hz = 10e9,13e9,18e9\n"
            "scenario.hop1.dwell_s = 80e-9\n"
        )
        sc = cfg.build_scenario()
        assert sc == RfScenario(
            tones=(ToneSpec(freq=11e9, amplitude=0.5), ToneSpec(freq=16e9)),
            chirps=(ChirpSpec(center=15e9, span=4e9, pulse_width=1.6e-6, repeat_interval=4e-6),),
            hops=(HopSpec(freqs=(10e9, 13e9, 18e9), dwell=80e-9),),
        )

    @pytest.mark.parametrize(
        "lines, emitter",
        [
            ("scenario.tone1.freq_hz = 11e9", ToneSpec(freq=11e9)),
            (
                "scenario.chirp1.center_hz = 15e9\nscenario.chirp1.span_hz = 4e9\n"
                "scenario.chirp1.pulse_width_s = 1.6e-6\nscenario.chirp1.repeat_interval_s = 4e-6",
                ChirpSpec(center=15e9, span=4e9, pulse_width=1.6e-6, repeat_interval=4e-6),
            ),
            (
                "scenario.hop1.freqs_hz = 10e9,13e9\nscenario.hop1.dwell_s = 80e-9",
                HopSpec(freqs=(10e9, 13e9), dwell=80e-9),
            ),
        ],
        ids=["tone", "chirp", "hop"],
    )
    def test_required_keys_alone_build_the_emitter(self, lines, emitter):
        scenario = RunConfig.from_text(f"mode = classify\n{lines}\n").build_scenario()
        assert scenario.tones + scenario.chirps + scenario.hops == (emitter,)

    def test_incomplete_chirp_rejected(self):
        cfg = RunConfig.from_text("mode = classify\nscenario.chirp1.center_hz = 15e9\n")
        with pytest.raises(ConfigError, match="chirp1 needs span_hz"):
            cfg.build_scenario()

    def test_model_overrides(self):
        cfg = RunConfig.from_text("mode = measure\nmrr.fwhm_hz = 500e6\npd.noise_sigma = 0\n")
        models = cfg.build_models()
        assert models.mrr.fwhm == 500e6
        assert models.pd.noise_sigma == 0.0
        assert models.mzi.fsr == 144e9  # untouched defaults stay


class TestExpectedLabel:
    def test_pure_scenarios(self):
        assert expected_label(RfScenario(tones=(ToneSpec(freq=1e9),))) is ClassLabel.SINGLE_FREQUENCY
        assert (
            expected_label(RfScenario(tones=(ToneSpec(freq=1e9), ToneSpec(freq=2e9))))
            is ClassLabel.MULTIPLE_FREQUENCY
        )
        assert expected_label(RfScenario()) is ClassLabel.UNKNOWN


FAST_MEASURE = (
    "mode = measure\n"
    "seed = 1\n"
    "pd.noise_sigma = 0\n"
    "measure.lo_hz = 12e9\n"
    "measure.hi_hz = 16e9\n"
    "measure.step_hz = 2e9\n"
)


# a small config of each sweep target mode: 3 calibration tones at 1 MS/s,
# one measured tone, a 200 ns dynamic run
SWEEP_TARGETS = {
    "calibrate": "calibration.step_hz = 5e9",
    "measure": "calibration.step_hz = 5e9\nmeasure.lo_hz = 15e9\nmeasure.hi_hz = 15e9",
    "classify": "calibration.step_hz = 5e9\nscenario.tone1.freq_hz = 12e9",
    "dynamic": "ifm.duration_s = 200e-9\nscenario.tone1.freq_hz = 14e9",
}


def _read_report(path) -> dict:
    return dict(line.split(" = ", 1) for line in path.read_text().splitlines())


class TestRun:
    def test_measure_mode_writes_estimates(self, tmp_path):
        from mwfi.scan_engine import CalibrationTable

        cfg = RunConfig.from_text(FAST_MEASURE)
        report = run(cfg, out_dir=tmp_path)
        # noiseless sweep errors stay within the one-sample quantization bound
        table = CalibrationTable.load(tmp_path / "calibration.txt")
        bound = table.slope_at(table.valid_range[1]) * 1e-6
        assert report.rms_error_hz <= bound
        lines = (tmp_path / "estimates.csv").read_text().splitlines()
        assert lines[0] == "truth_hz,estimate_hz,error_hz"
        assert len(lines) == 4
        assert (tmp_path / "calibration.txt").exists()
        assert (tmp_path / "report.txt").exists()
        assert report.rms_error_hz == pytest.approx(
            rms_error(
                [t + e for t, e in zip([12e9, 14e9, 16e9], report.per_tone_errors_hz)],
                [12e9, 14e9, 16e9],
            )
        )

    def test_calibrate_mode_writes_artifacts(self, tmp_path):
        cfg = RunConfig.from_text("mode = calibrate\npd.noise_sigma = 0\n")
        run(cfg, out_dir=tmp_path)
        assert (tmp_path / "calibration.txt").exists()
        assert (tmp_path / "lut.csv").exists()

    def test_dynamic_mode_writes_tracks(self, tmp_path):
        cfg = RunConfig.from_file(preset_path("fig6c"))
        report = run(cfg, out_dir=tmp_path)
        assert (tmp_path / "inst_freq.csv").exists()
        assert (tmp_path / "ifm_trace.csv").exists()
        assert report.rms_error_hz < 0.5e9

    def test_jam_removal_csv_contains_only_surviving_hops(self, tmp_path):
        # the 10 GHz dwells read NOISE; every frequency row sits near 13/15/17
        cfg = RunConfig.from_file(preset_path("fig6f"))
        run(cfg, out_dir=tmp_path)
        values = []
        for line in (tmp_path / "inst_freq.csv").read_text().splitlines()[1:]:
            field = line.split(",")[1]
            if field != "NOISE":
                values.append(float(field))
        assert values, "expected surviving hop samples"
        targets = np.array([13e9, 15e9, 17e9])
        # per-sample noise is ~0.2 GHz rms, so individual rows get a loose
        # bound; the dwell-median accuracy is pinned in the acceptance suite
        for v in values:
            assert np.min(np.abs(targets - v)) < 1e9

    def test_dynamic_ratio_mode(self, tmp_path):
        cfg = RunConfig.from_text(
            "mode = dynamic\n"
            "ifm.mode = ratio\n"
            "ifm.duration_s = 200e-9\n"
            "scenario.tone1.freq_hz = 14e9\n"
            "pd.noise_sigma = 0\n"
        )
        report = run(cfg, out_dir=tmp_path)
        assert report.rms_error_hz < 10e6
        assert report.extras["n_noise_flagged"] == "0"

    def test_seed_override_changes_noise(self, tmp_path):
        cfg = RunConfig.from_file(preset_path("fig3a"))
        r1 = run(cfg, seed=1, out_dir=tmp_path / "a")
        r2 = run(cfg, seed=2, out_dir=tmp_path / "b")
        assert r1.per_tone_errors_hz != r2.per_tone_errors_hz

    def test_sweep_aggregates(self, tmp_path):
        cfg = RunConfig.from_text(
            "mode = sweep\n"
            "sweep.mode = classify\n"
            "sweep.n_seeds = 2\n"
            "scenario.tone1.freq_hz = 15e9\n"
        )
        report = run(cfg, out_dir=tmp_path)
        assert report.extras["classification_accuracy"] == "1.0000"
        assert (tmp_path / "sweep.csv").exists()
        for seed in (1, 2):
            sub = _read_report(tmp_path / f"seed_{seed}" / "report.txt")
            assert float(sub["runtime_s"]) > 0  # each sub-run times itself
            assert not (tmp_path / f"seed_{seed}" / "scan_trace.csv").exists()

    def test_dynamic_sweep_keeps_no_traces(self, tmp_path):
        cfg = RunConfig.from_text(
            "mode = sweep\n"
            "sweep.mode = dynamic\n"
            "sweep.n_seeds = 2\n"
            "ifm.duration_s = 200e-9\n"
            "scenario.tone1.freq_hz = 14e9\n"
        )
        report = run(cfg, out_dir=tmp_path)
        assert report.rms_error_hz < 0.5e9
        for seed in (1, 2):
            sub = tmp_path / f"seed_{seed}"
            assert sorted(p.name for p in sub.iterdir()) == ["report.txt"]

    def test_calibrate_sweep_keeps_no_lut(self, tmp_path):
        # the lookup table does not depend on the seed; a single run writes it
        text = "mode = sweep\nsweep.mode = calibrate\nsweep.n_seeds = 2\ncalibration.step_hz = 5e9\n"
        run(RunConfig.from_text(text), out_dir=tmp_path / "sweep")
        for seed in (1, 2):
            sub = tmp_path / "sweep" / f"seed_{seed}"
            assert sorted(p.name for p in sub.iterdir()) == ["calibration.txt", "report.txt"]
        single = RunConfig.from_text(text)
        single.values["mode"] = "calibrate"
        run(single, out_dir=tmp_path / "single")
        assert (tmp_path / "single" / "lut.csv").exists()

    @pytest.mark.parametrize("step, residual", [("5e9", False), ("2.5e9", True)])
    def test_fit_residual_needs_four_tones(self, tmp_path, step, residual):
        # a quadratic through 3 tones fits them exactly, up to rounding
        run(RunConfig.from_text(f"mode = calibrate\ncalibration.step_hz = {step}\n"),
            out_dir=tmp_path)
        assert ("fit_residual_rms_hz" in _read_report(tmp_path / "report.txt")) == residual
        assert len((tmp_path / "calibration.txt").read_text().splitlines()) == 3

    @pytest.mark.parametrize("mode", SWEEP_TARGETS)
    def test_single_run_rebuilds_a_sweep_seed(self, tmp_path, mode):
        # the sweep's config and one of its seeds, run in the target mode,
        # give that seed's files and write the ones the sweep left out
        cfg = tmp_path / "sweep.cfg"
        lines = SWEEP_TARGETS[mode]
        cfg.write_text(f"mode = sweep\nsweep.mode = {mode}\nsweep.n_seeds = 2\n{lines}\n")
        sweep, single = tmp_path / "sweep", tmp_path / "single"
        assert main(["sweep", "--config", str(cfg), "--seed", "5", "--out", str(sweep)]) == 0
        assert main([mode, "--config", str(cfg), "--seed", "6", "--out", str(single)]) == 0
        kept = sweep / "seed_6"
        names = {p.name for p in kept.iterdir()}
        assert names == {p.name for p in single.iterdir()} - _SWEEP_DROPS
        for name in names - {"report.txt"}:
            assert (kept / name).read_bytes() == (single / name).read_bytes(), name
        report, rebuilt = _read_report(kept / "report.txt"), _read_report(single / "report.txt")
        del report["runtime_s"], rebuilt["runtime_s"]
        assert report == rebuilt

    def test_sweep_needs_target_mode(self, tmp_path):
        cfg = RunConfig.from_text("mode = sweep\nsweep.mode = sweep\n")
        with pytest.raises(ConfigError, match="sweep.mode"):
            run(cfg, out_dir=tmp_path)

    def test_errors_name_failing_stage(self, tmp_path):
        cfg = RunConfig.from_text(
            "mode = measure\nmeasure.lo_hz = 35e9\nmeasure.hi_hz = 36e9\nmeasure.step_hz = 1e9\n"
        )
        # the scan reaches these tones, but the 10-20 GHz calibration does not
        with pytest.raises(RuntimeError, match="measure stage failed"):
            run(cfg, out_dir=tmp_path)

    @pytest.mark.parametrize(
        "mode, line, error",
        [
            ("measure", "measure.lo_hz = 15e9\nmeasure.hi_hz = 15e9", None),
            ("measure", "measure.lo_hz = 35e9\nmeasure.hi_hz = 35e9", RuntimeError),
            # the plan computes the axis before it refuses the lookup port
            ("calibrate", "ifm.port = 3", ConfigError),
        ],
        ids=["run-ends", "stage-fails", "plan-refused"],
    )
    def test_scan_cache_cleared_when_run_ends(self, tmp_path, mode, line, error):
        cfg = RunConfig.from_text(f"mode = {mode}\ncalibration.step_hz = 5e9\n{line}\n")
        if error:
            with pytest.raises(error):
                run(cfg, out_dir=tmp_path)
        else:
            run(cfg, out_dir=tmp_path)
        assert _scan_axis.cache_info().currsize == 0


@pytest.mark.parametrize(
    "estimates, truths, errors",
    [([10.5e9, 14e9], [10e9, 15e9], [0.5e9, -1e9]), ([10e9], [10e9, 15e9], []), ([], [], [])],
    ids=["paired", "count differs", "empty"],
)
def test_score_sets_errors_and_rms_together(estimates, truths, errors):
    report = MetricsReport(mode="classify", seed=1)
    report.score(estimates, truths)
    assert report.per_tone_errors_hz == errors
    if errors:
        assert report.rms_error_hz == rms_error(estimates, truths)
    else:
        assert report.rms_error_hz is None


def test_classify_scores_nothing_without_truths(tmp_path):
    # a lone 30 GHz hop reads as one tone, outside the 10-20 GHz calibration:
    # no estimate, no truth tone, and so no score
    cfg = RunConfig.from_text(
        "mode = classify\ncalibration.step_hz = 5e9\n"
        "scenario.hop1.freqs_hz = 30e9\nscenario.hop1.dwell_s = 80e-9\n"
    )
    report = run(cfg, out_dir=tmp_path)
    assert report.classification == "single"
    assert report.extras["estimated_freqs_hz"] == ""
    assert report.per_tone_errors_hz == [] and report.rms_error_hz is None


def test_report_lines_round_trip():
    report = MetricsReport(mode="measure", seed=3, rms_error_hz=1.5e8)
    report.per_tone_errors_hz = [1e8, -2e8]
    lines = report.lines()
    assert "mode = measure" in lines
    assert any(line.startswith("rms_error_hz = 1.5") for line in lines)


class TestPresets:
    def test_all_presets_parse(self):
        names = list_presets()
        assert {"fig3a", "fig3b", "fig4a", "fig4b", "fig4c", "fig4d",
                "fig5a", "fig5c", "fig5e", "fig5g", "fig6c", "fig6f"} <= set(names)
        for name in names:
            cfg = RunConfig.from_file(preset_path(name))
            assert cfg.mode in ("measure", "classify", "dynamic", "calibrate", "sweep")

    def test_unknown_preset_is_none(self):
        assert preset_path("fig99") is None


HOP_AT_1E8 = (
    "ifm.sample_rate_hz = 1e8\nscenario.hop1.freqs_hz = 12e9\nscenario.hop1.dwell_s = 80e-9"
)

# (valid, invalid) config lines of the settings that the plan test draws
PLAN_LINES = {
    "scan rate": (["scan.sample_rate_hz = 2718281"], ["scan.sample_rate_hz = 1e4"]),
    "periods": (["drive.n_periods = 1"], ["drive.n_periods = 2"]),
    "cal step": (["calibration.step_hz = 5e9"], ["calibration.step_hz = 0"]),
    # the scan runs from 8 GHz, exactly mrr.f_offset0_hz, to 39.99 GHz
    "cal lo": (["calibration.lo_hz = 8e9"], ["calibration.lo_hz = 0", "calibration.lo_hz = 5e9"]),
    "cal band": (["calibration.hi_hz = 18e9"], ["calibration.hi_hz = 11e9"]),
    "tones": (
        ["measure.hi_hz = 16e9", "measure.step_hz = 2e9"],
        [
            "measure.hi_hz = 5e9", "measure.lo_hz = 0", "measure.lo_hz = inf",
            "measure.step_hz = 0", "measure.lo_hz = 5e9",
        ],
    ),
    "method": (["measure.method = fttm", "measure.method = ftpm"], ["measure.method = bogus"]),
    # 1e8 S/s is too slow only for the 80 ns dwell of "hop"
    "ifm rate": (
        ["ifm.sample_rate_hz = 2e8"], ["ifm.sample_rate_hz = 0", "ifm.sample_rate_hz = 1e8"]
    ),
    "duration": (["ifm.duration_s = 200e-9"], ["ifm.duration_s = 1e-12"]),
    "lut mode": (["ifm.mode = single_port"], ["ifm.mode = bogus"]),
    "port": (["ifm.port = 1", "ifm.port = 2"], ["ifm.port = 3", "ifm.port = 1.5"]),
    "knots": (["ifm.n_knots = 64"], ["ifm.n_knots = 1"]),
    "floor": (["ifm.noise_floor = 0.1"], ["ifm.noise_floor = -1"]),
    "limit": (["ifm.upper_limit_hz = 18e9"], ["ifm.upper_limit_hz = 25e9"]),
    "band": (["ifm.band_lo_hz = 11e9"], ["ifm.band_hi_hz = 90e9"]),
    "target": (["sweep.mode = classify", "sweep.mode = dynamic"], ["sweep.mode = sweep"]),
    "seeds": (["sweep.n_seeds = 2"], ["sweep.n_seeds = 0"]),
    "hop": (
        ["scenario.hop1.freqs_hz = 12e9\nscenario.hop1.dwell_s = 80e-9"],
        [
            "scenario.hop1.dwell_s = 80e-9",
            "scenario.hop1.freqs_hz = 12e9\nscenario.hop1.dwell_s = 0",
        ],
    ),
    "ring": (["mrr.fwhm_hz = 500e6"], ["mrr.fwhm_hz = 0"]),
    "drive": (["drive.v_min_v = 0"], ["drive.v_min_v = -1"]),
}


@settings(max_examples=25, deadline=None)
@given(
    mode=st.sampled_from(MODES),
    picks=st.dictionaries(st.sampled_from(sorted(PLAN_LINES)), st.booleans(), max_size=4),
    data=st.data(),
)
def test_plan_builds_or_names_its_key(mode, picks, data):
    if mode == "sweep":
        picks = {"target": True, **picks}  # a sweep needs a target mode
    lines = [f"mode = {mode}"]
    for name, valid in picks.items():
        lines.append(data.draw(st.sampled_from(PLAN_LINES[name][0 if valid else 1])))
    cfg = RunConfig.from_text("\n".join(lines) + "\n", source="drawn.cfg")
    try:
        build_plan(cfg)
    except ConfigError as exc:
        assert not all(picks.values()), f"valid settings refused: {exc}"
        assert re.match(r"drawn\.cfg: (key|section) '[a-z0-9_.]+': ", str(exc)), str(exc)
    finally:
        _scan_axis.cache_clear()


# a mode that reads each setting of PLAN_LINES, with the lines it needs
PLAN_READERS = {
    "scan rate": "mode = calibrate",
    "periods": "mode = calibrate",
    "cal step": "mode = calibrate",
    "cal lo": "mode = calibrate",
    "cal band": "mode = calibrate",
    "tones": "mode = measure",
    "method": "mode = measure",
    "ifm rate": "mode = dynamic\n" + PLAN_LINES["hop"][0][0],
    "duration": "mode = dynamic",
    "lut mode": "mode = dynamic",
    "port": "mode = dynamic",
    "knots": "mode = dynamic",
    "floor": "mode = dynamic",
    "limit": "mode = dynamic",
    "band": "mode = dynamic",
    "target": "mode = sweep",
    "seeds": "mode = sweep\nsweep.mode = dynamic",
    "hop": "mode = dynamic",
    "ring": "mode = dynamic",
    "drive": "mode = calibrate",
}
# what an invalid line is blamed on where it is not the line's own key
PLAN_BLAME = {
    "calibration.hi_hz = 11e9": "section 'calibration'",  # 2 tones, the fit needs 3
    "ifm.band_hi_hz = 90e9": "section 'ifm'",  # wider than half the MZI FSR
    "scenario.hop1.dwell_s = 80e-9": "key 'scenario.hop1.freqs_hz'",
    "scenario.hop1.freqs_hz = 12e9\nscenario.hop1.dwell_s = 0": "section 'scenario.hop1'",
    "mrr.fwhm_hz = 0": "section 'mrr'",
    "calibration.lo_hz = 5e9": "section 'calibration'",  # below the scan's reach
    "measure.lo_hz = 5e9": "section 'measure'",
    "drive.v_min_v = -1": "section 'drive'",
}


@pytest.mark.parametrize(
    "name, text",
    [(name, text) for name, (_, invalid) in PLAN_LINES.items() for text in invalid],
    ids=lambda v: v.replace("\n", "; "),
)
def test_plan_refuses_every_invalid_line(name, text):
    where = PLAN_BLAME.get(text, f"key '{text.split(' = ')[0]}'")
    cfg = RunConfig.from_text(f"{PLAN_READERS[name]}\n{text}\n", source="bad.cfg")
    try:
        with pytest.raises(ConfigError, match=f"^bad\\.cfg: {re.escape(where)}: "):
            build_plan(cfg)
    finally:
        _scan_axis.cache_clear()


def test_checked_run_keys_are_drawn():
    # a run key's check is exercised by an invalid line of the plan test;
    # mode is drawn by the test itself and seed is read by run, not the plan
    drawn = {
        line.split(" = ")[0]
        for _, invalid in PLAN_LINES.values() for text in invalid for line in text.splitlines()
    }
    checked = {key for key, (_, _, check) in _RUN.items() if check is not None}
    assert checked - {"mode", "seed"} <= drawn


def test_run_defaults_match_the_engine_defaults():
    # an unset run key behaves as the engine function called without it
    lut = inspect.signature(build_lut).parameters
    extract = inspect.signature(extract_inst_freq).parameters
    default = {key: row[1] for key, row in _RUN.items()}
    assert (default["ifm.band_lo_hz"], default["ifm.band_hi_hz"]) == lut["band"].default
    assert lut["band"].default == DEFAULT_BAND
    for key in ("mode", "port", "n_knots"):
        assert default[f"ifm.{key}"] == lut[key].default, key
    assert default["ifm.noise_floor"] == extract["noise_floor"].default
    assert default["ifm.upper_limit_hz"] == extract["upper_limit"].default


# run key -> (reader of the plan field it sets, default, valid values other
# than the default), kept apart from the config module's _RUN for the same
# reason as ROUND_TRIP below; a key without a default is drawn in every example
RUN_TRIP = {
    "scan.sample_rate_hz": (lambda p: p["calibrate"].scan_grid.sample_rate, 1e6, [2718281.0]),
    "calibration.lo_hz": (lambda p: p["calibrate"].cal_tones[0], 10e9, [12e9]),
    "calibration.hi_hz": (lambda p: p["calibrate"].cal_tones[-1], 20e9, [16e9]),
    "calibration.step_hz": (lambda p: np.diff(p["calibrate"].cal_tones)[0], 1e9, [2e9]),
    "measure.lo_hz": (lambda p: p["measure"].tones[0], 10e9, [12e9]),
    "measure.hi_hz": (lambda p: p["measure"].tones[-1], 20e9, [16e9]),
    "measure.step_hz": (lambda p: np.diff(p["measure"].tones)[0], 0.5e9, [1e9, 2e9]),
    "measure.method": (lambda p: p["measure"].method, "fttm", ["ftpm"]),
    "ifm.sample_rate_hz": (lambda p: p["dynamic"].ifm_grid.sample_rate, 1e9, [2e9]),
    "ifm.duration_s": (
        lambda p: p["dynamic"].ifm_grid.n_samples / p["dynamic"].ifm_grid.sample_rate,
        400e-9, [200e-9],
    ),
    "ifm.band_lo_hz": (lambda p: p["dynamic"].lut.band[0], 10e9, [11e9]),
    "ifm.band_hi_hz": (lambda p: p["dynamic"].lut.band[1], 20e9, [21e9]),
    "ifm.mode": (lambda p: p["dynamic"].lut.mode, "single_port", ["ratio"]),
    "ifm.port": (lambda p: p["dynamic"].lut.port, 2, [1]),
    "ifm.n_knots": (lambda p: p["dynamic"].lut.freqs.size, 4096, [64]),
    "ifm.noise_floor": (lambda p: p["dynamic"].noise_floor, 0.05, [0.1]),
    "ifm.upper_limit_hz": (lambda p: p["dynamic"].upper_limit, 20e9, [18e9]),
    "sweep.n_seeds": (lambda p: p["sweep"].n_seeds, 10, [2]),
    "sweep.mode": (lambda p: p["sweep"].target.mode, None, ["calibrate", "dynamic", "measure"]),
}


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_run_keys_round_trip_to_plan_fields(data):
    keys = data.draw(st.sets(st.sampled_from(sorted(RUN_TRIP))))
    keys |= {key for key, (_, default, _) in RUN_TRIP.items() if default is None}
    drawn = {key: data.draw(st.sampled_from(RUN_TRIP[key][2])) for key in sorted(keys)}
    # an ftpm measure refuses the ratio lookup, as the plan test shows
    assume(not (drawn.get("measure.method") == "ftpm" and drawn.get("ifm.mode") == "ratio"))
    lines = ["mode = sweep"] + [f"{key} = {value}" for key, value in drawn.items()]
    cfg = RunConfig.from_text("\n".join(lines) + "\n", source="drawn.cfg")
    try:
        plans = {mode: build_plan(cfg, mode) for mode in ("calibrate", "measure", "dynamic")}
        plans["sweep"] = build_plan(cfg)
    finally:
        _scan_axis.cache_clear()
    for key, (read, default, _) in RUN_TRIP.items():
        assert read(plans) == drawn.get(key, default), key


# config key -> (model field, valid values other than its default); kept
# apart from the config module's own table, so a wrong row there fails here.
# The object a key sets is named by its second-to-last part.
ROUND_TRIP = {
    "drive.v_min_v": ("v_min", [0.5, 0.25]),
    "drive.v_max_v": ("v_max", [3.0, 5.0]),
    "drive.period_s": ("period", [0.1, 0.5]),
    "drive.n_periods": ("n_periods", [1]),
    "modulator.bw_3db_hz": ("bw_3db", [20e9, 30e9]),
    "modulator.carrier_suppression_db": ("carrier_suppression", [20.0, 30.0]),
    "modulator.image_suppression_db": ("image_sideband_suppression", [15.0, 35.0]),
    "mrr.fsr_hz": ("fsr", [60e9, 100e9]),
    "mrr.fwhm_hz": ("fwhm", [500e6, 1e9]),
    "mrr.f_offset0_hz": ("f_offset0", [6e9, 9e9]),
    "mrr.k_thermal_hz_per_v2": ("k_thermal", [1.5e9, 2.5e9]),
    "mrr.tau_thermal_s": ("tau_thermal", [20e-6, 50e-6]),
    "mzi.fsr_hz": ("fsr", [100e9, 160e9]),
    "mzi.extinction_ratio_db": ("extinction_ratio", [10.0, 25.0]),
    "mzi.f_ref_hz": ("f_ref", [1e9, -2e9]),
    "notch.centers_hz": ("centers", [(9.5e9,), (9.75e9, 10e9, 10.25e9)]),
    "notch.fwhm_each_hz": ("fwhm_each", [200e6, 400e6]),
    "notch.rejection_db": ("rejection", [10.0, 30.0]),
    "pd.bw_3db_hz": ("bw_3db", [25e9, 40e9]),
    "pd.noise_sigma": ("noise_sigma", [0.0, 0.05]),
    "link.gain": ("link_gain", [0.5, 2.0]),
    "scenario.tone1.freq_hz": ("freq", [11e9, 16e9]),
    "scenario.tone1.amplitude": ("amplitude", [0.5, 2.0]),
    "scenario.chirp1.center_hz": ("center", [14e9, 16e9]),
    "scenario.chirp1.span_hz": ("span", [2e9, 6e9]),
    "scenario.chirp1.pulse_width_s": ("pulse_width", [1e-6, 1.6e-6]),
    "scenario.chirp1.repeat_interval_s": ("repeat_interval", [4e-6, 5e-6]),
    "scenario.chirp1.amplitude": ("amplitude", [0.5]),
    "scenario.chirp1.direction": ("direction", ["down"]),
    "scenario.hop1.freqs_hz": ("freqs", [(10e9, 13e9), (12e9,)]),
    "scenario.hop1.dwell_s": ("dwell", [80e-9, 1e-7]),
    "scenario.hop1.amplitude": ("amplitude", [0.7]),
    "scenario.hop1.start_s": ("start", [1e-7]),
    "scenario.hop1.repeat": ("repeat", [False]),
}
EMITTER_NEEDS = {
    "scenario.tone1.freq_hz", "scenario.chirp1.center_hz", "scenario.chirp1.span_hz",
    "scenario.chirp1.pulse_width_s", "scenario.chirp1.repeat_interval_s",
    "scenario.hop1.freqs_hz", "scenario.hop1.dwell_s",
}


def _render(value) -> str:
    if isinstance(value, tuple):
        return ",".join(repr(v) for v in value)
    if isinstance(value, bool):
        return str(value).lower()
    return value if isinstance(value, str) else repr(value)


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_config_round_trips_to_model_fields(data):
    keys = data.draw(st.sets(st.sampled_from(sorted(ROUND_TRIP)))) | EMITTER_NEEDS
    drawn = {key: data.draw(st.sampled_from(ROUND_TRIP[key][1])) for key in sorted(keys)}
    lines = ["mode = classify", "seed = 3", "notch.enabled = true"]
    lines += [f"{key} = {_render(value)}" for key, value in drawn.items()]
    cfg = RunConfig.from_text("\n".join(lines) + "\n", source="drawn.cfg")
    models, scenario = cfg.build_models(), cfg.build_scenario()
    built = {
        "drive": cfg.build_drive(), "modulator": models.modulator, "mrr": models.mrr,
        "mzi": models.mzi, "notch": models.notch, "pd": models.pd, "link": models,
        "tone1": scenario.tones[0], "chirp1": scenario.chirps[0], "hop1": scenario.hops[0],
    }
    assert models.pd.seed == 3
    for key, (name, _) in ROUND_TRIP.items():
        model = built[key.split(".")[-2]]
        defaults = {f.name: f.default for f in dataclasses.fields(model)}
        want = drawn[key] if key in drawn else defaults[name]
        assert getattr(model, name) == want, key


# a child interpreter imports mwfi from this checkout's src/, whether or not
# PYTHONPATH names it (pytest's own pythonpath setting reaches only pytest)
SRC = str(Path(__file__).resolve().parents[1] / "src")
CHILD_ENV = {
    **os.environ,
    "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])),
}


class TestCli:
    def _python(self, *argv):
        """A fresh interpreter's run of argv, output captured as text."""
        return subprocess.run(
            [sys.executable, *argv], capture_output=True, text=True, env=CHILD_ENV
        )

    def _run(self, *args):
        return self._python("-m", "mwfi.cli", *args)

    def test_dynamic_preset_exits_zero(self, tmp_path):
        proc = self._run("dynamic", "--config", "fig6c", "--out", str(tmp_path))
        assert proc.returncode == 0, proc.stderr
        assert "rms_error_hz" in proc.stdout

    def test_config_error_exits_two(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("mode = measure\nmrr.q_factor = 2.2e5\n")
        proc = self._run("measure", "--config", str(bad), "--out", str(tmp_path))
        assert proc.returncode == 2
        assert "unknown key" in proc.stderr

    @pytest.mark.parametrize(
        "mode, line, key",
        [
            ("measure", "measure.method = bogus", "measure.method"),
            ("sweep", "sweep.mode = bogus", "sweep.mode"),
            ("sweep", "sweep.mode = dynamic\nsweep.n_seeds = 2.9", "sweep.n_seeds"),
        ],
    )
    def test_config_error_inside_mode_exits_two(self, tmp_path, capsys, mode, line, key):
        bad = tmp_path / "bad.cfg"
        bad.write_text(f"mode = {mode}\n{line}\n")
        assert main([mode, "--config", str(bad), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert f"config error: {bad}: key '{key}'" in err

    @pytest.mark.parametrize(
        "line, name",
        [
            ("mrr.fwhm_hz = 0", "section 'mrr'"),
            ("mrr.fwhm_hz = nan", "mrr.fwhm_hz"),
            ("drive.v_max_v = 0", "section 'drive'"),
            ("pd.noise_sigma = nan", "pd.noise_sigma"),
            ("link.gain = inf", "link.gain"),
            ("link.gain = 0", "section 'link'"),
            ("notch.enabled = true\nnotch.centers_hz = 10e9,-inf", "notch.centers_hz"),
            ("scenario.tone1.freq_hz = -1e9", "section 'scenario.tone1'"),
        ],
    )
    def test_invalid_value_exits_two(self, tmp_path, capsys, line, name):
        bad = tmp_path / "bad.cfg"
        bad.write_text(f"mode = classify\n{line}\n")
        assert main(["classify", "--config", str(bad), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert f"config error: {bad}: " in err and name in err

    @pytest.mark.parametrize(
        "mode, line, key",
        [
            ("measure", "scan.sample_rate_hz = 0", "scan.sample_rate_hz"),
            ("dynamic", "ifm.n_knots = 1", "ifm.n_knots"),
            ("dynamic", "ifm.port = 3", "ifm.port"),
            ("measure", "drive.n_periods = 2", "drive.n_periods"),
            ("dynamic", "ifm.sample_rate_hz = 0", "ifm.sample_rate_hz"),
            ("dynamic", "ifm.duration_s = 0", "ifm.duration_s"),
            # too slow for the heater lag, which refuses the grid
            ("measure", "scan.sample_rate_hz = 1e4", "scan.sample_rate_hz"),
            ("classify", "scan.sample_rate_hz = 1e4", "scan.sample_rate_hz"),
            ("measure", "measure.step_hz = 0", "measure.step_hz"),
            ("measure", "calibration.step_hz = 0", "calibration.step_hz"),
            ("calibrate", "calibration.step_hz = -1e9", "calibration.step_hz"),
            ("measure", "measure.hi_hz = 5e9", "measure.hi_hz"),
            ("measure", "measure.lo_hz = 0\nmeasure.hi_hz = 0", "measure.lo_hz"),
            ("calibrate", "calibration.lo_hz = -1e9", "calibration.lo_hz"),
            ("classify", "calibration.hi_hz = 5e9", "calibration.hi_hz"),
            ("measure", "calibration.lo_hz = 20e9", "calibration"),
            ("dynamic", "ifm.upper_limit_hz = 25e9", "ifm.upper_limit_hz"),
            ("dynamic", "ifm.noise_floor = -1", "ifm.noise_floor"),
            ("measure", "measure.method = ftpm\nifm.mode = ratio", "ifm.mode"),
            ("measure", "measure.method = ftpm\nifm.noise_floor = -1", "ifm.noise_floor"),
            ("sweep", "sweep.mode = measure\nsweep.n_seeds = 0", "sweep.n_seeds"),
            # calibrate must write neither file until the FTTM table and the
            # lookup settings are both accepted
            ("calibrate", "calibration.step_hz = 5e9\nifm.port = 3", "ifm.port"),
            # a sweep reads its target's settings before it makes seed_1/
            ("sweep", "sweep.mode = measure\nmeasure.step_hz = 0", "measure.step_hz"),
            # 8 samples per 80 ns dwell at 1e8 S/s, fewer than the 10 required
            ("dynamic", HOP_AT_1E8, "ifm.sample_rate_hz"),
            ("sweep", "sweep.mode = dynamic\n" + HOP_AT_1E8, "ifm.sample_rate_hz"),
            ("dynamic", "ifm.mode = bogus", "ifm.mode"),
            # a ramp through 0 V turns the scan back
            ("calibrate", "drive.v_min_v = -1", "drive"),
            # tones the scan never reaches: it runs from 8 to 39.99 GHz
            ("calibrate", "calibration.lo_hz = 5e9\ncalibration.step_hz = 5e9", "calibration"),
            ("calibrate", "calibration.lo_hz = 30e9\ncalibration.hi_hz = 50e9", "calibration"),
            ("measure", "measure.lo_hz = 5e9", "measure"),
            ("sweep", "sweep.mode = measure\nmeasure.hi_hz = 45e9", "measure"),
        ],
    )
    def test_invalid_run_setting_exits_two(self, tmp_path, capsys, mode, line, key):
        bad = tmp_path / "bad.cfg"
        bad.write_text(f"mode = {mode}\n{line}\n")
        out = tmp_path / "out"
        assert main([mode, "--config", str(bad), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        where = f"key '{key}'" if "." in key else f"section '{key}'"
        assert f"config error: {bad}: {where}" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "line",
        [
            "link.carrier_freq_hz = 193.1e12",
            "scenario.tone1.phase_rad = 1",
            "detect.noise_floor_quantile = 0.5",
            "detect.min_prominence = 0.1",
            "detect.gap_tolerance_s = 1e-3",
            "classify.fill_threshold = 0.25",
            "classify.gap_threshold_s = 1e-3",
            "span.rel_threshold = 0.1",
            "mrr.peak_transmission = 0.5",
            "mzi.insertion_loss_db = 3",
            "pd.responsivity = 4",
        ],
    )
    def test_removed_keys_exit_two(self, tmp_path, capsys, line):
        bad = tmp_path / "bad.cfg"
        bad.write_text(f"mode = classify\nscenario.tone1.freq_hz = 15e9\n{line}\n")
        assert main(["classify", "--config", str(bad), "--out", str(tmp_path)]) == 2
        assert "unknown key" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "line, flags", [("seed = -1", []), ("", ["--seed", "-3"])], ids=["config", "flag"]
    )
    def test_negative_seed_exits_two(self, tmp_path, capsys, line, flags):
        bad = tmp_path / "bad.cfg"
        bad.write_text(f"mode = dynamic\n{line}\n")
        out = tmp_path / "out"
        assert main(["dynamic", "--config", str(bad), "--out", str(out), *flags]) == 2
        err = capsys.readouterr().err
        if flags:
            # the value came from the flag, not the file
            assert "config error: seed override: key 'seed'" in err
            assert bad.name not in err
        else:
            assert f"config error: {bad}: key 'seed'" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "other", ["scenario.tone1.freq_hz = 10e9\n", ""], ids=["beside tone1", "alone"]
    )
    def test_emitter_index_with_leading_zero_exits_two(self, tmp_path, capsys, other):
        # tone01 would be tone1: ignored beside it, or blamed on a key not in the file
        bad = tmp_path / "bad.cfg"
        bad.write_text(f"mode = classify\n{other}scenario.tone01.freq_hz = 15e9\n")
        out = tmp_path / "out"
        assert main(["classify", "--config", str(bad), "--out", str(out)]) == 2
        assert "unknown key 'scenario.tone01.freq_hz'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("kind", ["directory", "not utf-8"])
    def test_unreadable_config_exits_two(self, tmp_path, capsys, kind):
        path = tmp_path / "bad.cfg"
        if kind == "directory":
            path.mkdir()
        else:
            path.write_bytes(b"mode = measure\nseed = \xff\n")
        out = tmp_path / "out"
        assert main(["measure", "--config", str(path), "--out", str(out)]) == 2
        assert f"config error: {path}: " in capsys.readouterr().err
        assert not out.exists()

    def test_missing_config_exits_two(self, tmp_path):
        proc = self._run("measure", "--config", "no_such_file.cfg", "--out", str(tmp_path))
        assert proc.returncode == 2
        assert "preset" in proc.stderr

    def test_runtime_error_exits_one(self, tmp_path):
        # the scan reaches 35-36 GHz, but the calibrated delays end at 20 GHz
        bad = tmp_path / "oob.cfg"
        bad.write_text(
            "mode = measure\nmeasure.lo_hz = 35e9\nmeasure.hi_hz = 36e9\nmeasure.step_hz = 1e9\n"
            "calibration.step_hz = 5e9\n"
        )
        out = tmp_path / "out"
        proc = self._run("measure", "--config", str(bad), "--out", str(out))
        assert proc.returncode == 1
        assert "error" in proc.stderr
        # the stage failed before any artifact was written
        assert not out.exists()

    # runs the CLI in a cold interpreter, then prints its exit code and the
    # scipy modules it loaded
    COLD = (
        "import json, sys\n"
        "from mwfi.cli import main\n"
        "code = main(sys.argv[1:])\n"
        "print(json.dumps([code, [m for m in sys.modules if m.split('.')[0] == 'scipy']]))\n"
    )

    @pytest.mark.parametrize(
        "args, code, scipy",
        [
            (["dynamic", "--config", "fig6c"], 0, False),
            (["measure", "--config", "fig3b"], 0, False),  # FTPM
            (["measure", "--config", "{bad}"], 2, False),
            # the scan axis is computed after the ifm keys are checked
            (["calibrate", "--config", "{bad_ifm}"], 2, False),
            (["measure", "--config", "no_such_preset"], 2, False),
            (["measure", "--config", "fig3a"], 0, True),  # FTTM scans
        ],
        ids=["dynamic", "ftpm", "bad config", "bad ifm key", "unknown preset", "fttm"],
    )
    def test_only_scan_runs_load_scipy(self, tmp_path, args, code, scipy):
        configs = {
            "bad": "mode = measure\nmeasure.step_hz = 0\n",
            "bad_ifm": "mode = calibrate\nifm.port = 3\n",
        }
        paths = {name: tmp_path / f"{name}.cfg" for name in configs}
        for name, text in configs.items():
            paths[name].write_text(text)
        argv = [a.format(**paths) for a in args] + ["--out", str(tmp_path / "out")]
        proc = self._python("-c", self.COLD, *argv)
        assert proc.returncode == 0, proc.stderr
        got, loaded = json.loads(proc.stdout.splitlines()[-1])
        assert got == code, proc.stderr
        assert bool(loaded) == scipy, loaded

    def test_reproducible_outputs(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            proc = self._run("classify", "--config", "fig4a", "--seed", "7", "--out", str(out))
            assert proc.returncode == 0, proc.stderr
        assert (a / "scan_trace.csv").read_bytes() == (b / "scan_trace.csv").read_bytes()
