import subprocess
import sys

import numpy as np
import pytest

from mwfi.classifier import ClassLabel
from mwfi.cli import main
from mwfi.config import ConfigError, RunConfig
from mwfi.harness import MetricsReport, expected_label, rms_error, run
from mwfi.presets import list_presets, preset_path
from mwfi.rf_signals import ChirpSpec, HopSpec, RfScenario, ToneSpec
from mwfi.scan_engine import _scan_axis


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
            _ = cfg.mode

    def test_missing_mode_rejected(self):
        with pytest.raises(ConfigError, match="mode"):
            _ = RunConfig.from_text("seed = 1\n").mode

    def test_comments_and_blanks_ignored(self):
        cfg = RunConfig.from_text("# header\n\nmode = classify  # trailing\n")
        assert cfg.mode == "classify"

    def test_bad_number_reported(self):
        cfg = RunConfig.from_text("mode = measure\npd.noise_sigma = lots\n")
        with pytest.raises(ConfigError, match="pd.noise_sigma"):
            cfg.build_models()

    def test_non_integral_integer_rejected(self):
        cfg = RunConfig.from_text("mode = sweep\nsweep.n_seeds = 2.9\n")
        with pytest.raises(ConfigError, match="sweep.n_seeds"):
            cfg.get_int("sweep.n_seeds")
        for text in ("4096", "4096.0", "1e3"):
            cfg = RunConfig.from_text(f"mode = calibrate\nifm.n_knots = {text}\n")
            assert cfg.get_int("ifm.n_knots") == int(float(text))

    def test_bool_parsing(self):
        cfg = RunConfig.from_text("mode = dynamic\nnotch.enabled = true\n")
        assert cfg.get_bool("notch.enabled") is True
        cfg = RunConfig.from_text("mode = dynamic\nnotch.enabled = maybe\n")
        with pytest.raises(ConfigError, match="boolean"):
            cfg.get_bool("notch.enabled")


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
        assert (tmp_path / "seed_1" / "report.txt").exists()

    def test_sweep_needs_target_mode(self, tmp_path):
        cfg = RunConfig.from_text("mode = sweep\nsweep.mode = sweep\n")
        with pytest.raises(ConfigError, match="sweep.mode"):
            run(cfg, out_dir=tmp_path)

    def test_errors_name_failing_stage(self, tmp_path):
        cfg = RunConfig.from_text(
            "mode = measure\nmeasure.lo_hz = 2e9\nmeasure.hi_hz = 4e9\nmeasure.step_hz = 1e9\n"
        )
        # tones below the scan band cannot be measured
        with pytest.raises(RuntimeError, match="measure stage failed"):
            run(cfg, out_dir=tmp_path)

    @pytest.mark.parametrize("lo_hz, fails", [(15e9, False), (2e9, True)])
    def test_scan_cache_cleared_when_run_ends(self, tmp_path, lo_hz, fails):
        cfg = RunConfig.from_text(
            "mode = measure\ncalibration.step_hz = 5e9\n"
            f"measure.lo_hz = {lo_hz!r}\nmeasure.hi_hz = {lo_hz!r}\n"
        )
        if fails:
            with pytest.raises(RuntimeError):
                run(cfg, out_dir=tmp_path)
        else:
            run(cfg, out_dir=tmp_path)
        assert _scan_axis.cache_info().currsize == 0


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


class TestCli:
    def _run(self, *args):
        return subprocess.run(
            [sys.executable, "-m", "mwfi.cli", *args], capture_output=True, text=True
        )

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
        assert "config error" in err and key in err

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
        assert "config error" in err and name in err

    @pytest.mark.parametrize(
        "mode, line, key",
        [
            ("measure", "scan.sample_rate_hz = 0", "scan.sample_rate_hz"),
            ("dynamic", "ifm.n_knots = 1", "ifm.n_knots"),
            ("dynamic", "ifm.port = 3", "ifm.port"),
            ("measure", "drive.n_periods = 2", "drive.n_periods"),
        ],
    )
    def test_invalid_run_setting_exits_two(self, tmp_path, capsys, mode, line, key):
        bad = tmp_path / "bad.cfg"
        bad.write_text(f"mode = {mode}\n{line}\n")
        assert main([mode, "--config", str(bad), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and f"key '{key}'" in err

    @pytest.mark.parametrize(
        "line", ["link.carrier_freq_hz = 193.1e12", "scenario.tone1.phase_rad = 1"]
    )
    def test_removed_keys_exit_two(self, tmp_path, capsys, line):
        bad = tmp_path / "bad.cfg"
        bad.write_text(f"mode = classify\nscenario.tone1.freq_hz = 15e9\n{line}\n")
        assert main(["classify", "--config", str(bad), "--out", str(tmp_path)]) == 2
        assert "unknown key" in capsys.readouterr().err

    def test_missing_config_exits_two(self, tmp_path):
        proc = self._run("measure", "--config", "no_such_file.cfg", "--out", str(tmp_path))
        assert proc.returncode == 2
        assert "preset" in proc.stderr

    def test_runtime_error_exits_one(self, tmp_path):
        bad = tmp_path / "oob.cfg"
        bad.write_text(
            "mode = measure\nmeasure.lo_hz = 2e9\nmeasure.hi_hz = 3e9\nmeasure.step_hz = 1e9\n"
        )
        proc = self._run("measure", "--config", str(bad), "--out", str(tmp_path))
        assert proc.returncode == 1
        assert "error" in proc.stderr

    def test_reproducible_outputs(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            proc = self._run("classify", "--config", "fig4a", "--seed", "7", "--out", str(out))
            assert proc.returncode == 0, proc.stderr
        assert (a / "scan_trace.csv").read_bytes() == (b / "scan_trace.csv").read_bytes()
