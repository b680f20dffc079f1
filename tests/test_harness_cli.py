import ast
import dataclasses
import inspect
import json
import math
import os
import re
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from mwfi.classifier import ClassLabel
from mwfi.cli import main
from mwfi.config import _EMITTERS, _RANGES, _RUN, _SECTIONS, MODES, ConfigError, RunConfig
from mwfi.harness import (
    _SWEEP_DROPS, MAX_SAMPLES, MAX_TONES, MetricsReport, _run_mode, _tone_list, build_plan,
    expected_label, rms_error, run,
)
from mwfi.ifm_engine import (
    DEFAULT_BAND, IfmTrace, build_lut, extract_inst_freq, ifm_trace_to_csv, lut_from_csv,
    simulate_ifm,
)
from mwfi.photonic_link import LinkModels
from mwfi.presets import list_presets, preset_path
from mwfi.rf_signals import ChirpSpec, HopSpec, RfScenario, TimeGrid, ToneSpec
from mwfi.scan_engine import SawtoothDrive, _scan_axis
from mwfi.seeding import STAGE_DYNAMIC, derive_seed


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
        assert cfg.build_models() == LinkModels()
        assert cfg.build_drive() == SawtoothDrive()

    @pytest.mark.parametrize("line", ["seed =", "seed =   # no value"])
    def test_empty_value_names_line(self, line):
        with pytest.raises(ConfigError, match=r"^cfg:2: empty value for 'seed'$"):
            RunConfig.from_text(f"mode = measure\n{line}\n", source="cfg")

    def test_bool_parsing(self):
        cfg = RunConfig.from_text("mode = dynamic\nnotch.enabled = true\n")
        assert cfg.get("notch.enabled") is True
        cfg = RunConfig.from_text("mode = dynamic\nnotch.enabled = maybe\n")
        with pytest.raises(ConfigError, match="boolean"):
            cfg.get("notch.enabled")


def test_readme_library_example_runs(capsys):
    # a signature change cannot leave the documented library use stale
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Library use", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    try:
        exec(compile(block, "README.md", "exec"), {})
    finally:
        _scan_axis.cache_clear()
    (printed,) = capsys.readouterr().out.splitlines()
    assert ast.literal_eval(printed) == pytest.approx([15e9], abs=0.5e9)


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
        tone = RfScenario(tones=(ToneSpec(freq=1e9),))
        assert expected_label(tone) is ClassLabel.SINGLE_FREQUENCY
        assert (
            expected_label(RfScenario(tones=(ToneSpec(freq=1e9), ToneSpec(freq=2e9))))
            is ClassLabel.MULTIPLE_FREQUENCY
        )
        assert expected_label(RfScenario()) is ClassLabel.UNKNOWN

    @pytest.mark.parametrize(
        "chirps, hops, label",
        [
            (1, 0, ClassLabel.CHIRPED),
            (0, 1, ClassLabel.FREQUENCY_HOPPING),
            (1, 1, None),  # the decision table names no mix
        ],
        ids=["chirped", "hopping", "mixed"],
    )
    def test_dynamic_scenarios(self, chirps, hops, label):
        chirp = ChirpSpec(center=15e9, span=4e9, pulse_width=1.6e-6, repeat_interval=4e-6)
        hop = HopSpec(freqs=(10e9, 13e9), dwell=80e-9)
        scenario = RfScenario(chirps=(chirp,) * chirps, hops=(hop,) * hops)
        assert expected_label(scenario) is label


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
        # one per-sample record, beside the lookup table it was read through
        names = sorted(p.name for p in tmp_path.iterdir())
        assert names == ["inst_freq.csv", "lut.csv", "report.txt"]
        assert report.rms_error_hz < 0.5e9

    def test_jam_removal_csv_contains_only_surviving_hops(self, tmp_path):
        # the 10 GHz dwells read NOISE; every frequency row sits near 13/15/17
        cfg = RunConfig.from_file(preset_path("fig6f"))
        run(cfg, out_dir=tmp_path)
        values = []
        for line in (tmp_path / "inst_freq.csv").read_text().splitlines()[1:]:
            field = line.split(",")[-1]  # the record's last field is the frequency
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

    def test_ratio_record_holds_both_ports(self, tmp_path):
        # port 1's power, then port 2's, each drawn at its own port seed
        cfg = RunConfig.from_text(
            f"mode = dynamic\nseed = 4\nifm.mode = ratio\n{SWEEP_TARGETS['dynamic']}\n"
        )
        run(cfg, out_dir=tmp_path)
        plan = build_plan(cfg)
        rows = (tmp_path / "inst_freq.csv").read_text().splitlines()
        assert rows[0] == "time_s,power,power_ref,freq_hz_or_NOISE"
        fields = [row.split(",") for row in rows[1:]]
        for k, port in enumerate((1, 2)):
            s = derive_seed(4, STAGE_DYNAMIC, k)
            trace = simulate_ifm(plan.scenario, plan.models, plan.ifm_grid, port, s)
            assert [f[1 + k] for f in fields] == [f"{v:.10e}" for v in trace.power]

    @pytest.mark.parametrize("table", ["single_port", "ratio"])
    def test_record_recomputes_from_its_artifacts(self, tmp_path, table):
        # the record's power columns and lut.csv, which holds the read-out's
        # full scale, give back its frequencies with no model call
        text = preset_path("fig6f").read_text() + f"ifm.mode = {table}\n"
        run(RunConfig.from_text(text), seed=3, out_dir=tmp_path)
        lut = lut_from_csv(tmp_path / "lut.csv")
        rows = [r.split(",") for r in (tmp_path / "inst_freq.csv").read_text().splitlines()[1:]]
        recorded = np.array([np.nan if r[-1] == "NOISE" else float(r[-1]) for r in rows])
        # the time column starts at 0, so its second row is the sample step
        grid = TimeGrid(sample_rate=1.0 / float(rows[1][0]), n_samples=len(rows))
        traces = [IfmTrace(grid, np.array([float(r[1 + k]) for r in rows]), port)
                  for k, port in enumerate(lut.ports)]
        est = extract_inst_freq(traces, lut)
        np.testing.assert_array_equal(est.is_noise, np.isnan(recorded))
        assert 0 < est.is_noise.sum() < len(rows)
        # each number was written to 11 significant digits, about 1 Hz at 20 GHz
        np.testing.assert_allclose(est.freq, recorded, rtol=0, atol=2.0)

    @pytest.mark.parametrize(
        "line, mode, ports",
        [("ifm.port = 1", "single_port", "1"), ("ifm.port = 2", "single_port", "2"),
         ("ifm.mode = ratio", "ratio", "1,2")],
    )
    def test_dynamic_report_names_the_record_ports(self, tmp_path, line, mode, ports):
        cfg = RunConfig.from_text(f"mode = dynamic\n{line}\n{SWEEP_TARGETS['dynamic']}\n")
        run(cfg, out_dir=tmp_path)
        report = _read_report(tmp_path / "report.txt")
        assert (report["ifm_mode"], report["ifm_ports"]) == (mode, ports)
        # a power column per port, in the report's order, between time and frequency
        header = (tmp_path / "inst_freq.csv").read_text().splitlines()[0].split(",")
        assert len(header[1:-1]) == len(ports.split(","))

    @settings(max_examples=25, deadline=None)
    @given(at=st.floats(0.0, 1.0), table=st.sampled_from(["single_port", "ratio"]))
    def test_ftpm_measure_noiseless_within_one_step_on_drawn_tones(
        self, tmp_path_factory, at, table
    ):
        # a unit tone anywhere in the 10-20 GHz lookup band, through the ftpm
        # measure run: the read-out of the mean powers inverts to within one
        # knot spacing, on either table
        f = DEFAULT_BAND[0] + at * (DEFAULT_BAND[1] - DEFAULT_BAND[0])
        cfg = RunConfig.from_text(
            f"mode = measure\nmeasure.method = ftpm\nmeasure.lo_hz = {f!r}\n"
            f"measure.hi_hz = {f!r}\npd.noise_sigma = 0\nifm.mode = {table}\n"
        )
        report = run(cfg, out_dir=tmp_path_factory.mktemp("ftpm"))
        (error,) = report.per_tone_errors_hz
        assert abs(error) <= build_plan(cfg).lut.step

    def test_dynamic_run_evaluates_its_tracks_per_block(self, tmp_path, monkeypatch):
        # a ratio run of 40,000 samples sums each port's power and scores
        # against the sole frequency over three blocks, each from its own
        # tracks, and writes its record from one time axis; the sums read
        # ifm_engine's binding of component_tracks, the scoring pass
        # rf_signals' own
        from mwfi import ifm_engine, rf_signals
        from mwfi.photonic_link import BLOCK

        n_times, spans = [], []
        grid_times, component_tracks = rf_signals.TimeGrid.times, rf_signals.component_tracks

        def times(grid):
            n_times.append(grid.n_samples)
            return grid_times(grid)

        def tracks(scenario, grid, block=slice(None)):
            spans.append(len(range(*block.indices(grid.n_samples))))
            return component_tracks(scenario, grid, block)

        monkeypatch.setattr(rf_signals.TimeGrid, "times", times)
        monkeypatch.setattr(rf_signals, "component_tracks", tracks)
        monkeypatch.setattr(ifm_engine, "component_tracks", tracks)
        cfg = RunConfig.from_text(
            "mode = dynamic\nifm.mode = ratio\nifm.duration_s = 40e-6\n"
            "scenario.hop1.freqs_hz = 10e9,13e9\nscenario.hop1.dwell_s = 80e-9\n"
        )
        run(cfg, out_dir=tmp_path)
        assert n_times == [40000]
        assert sorted(spans) == sorted([BLOCK, BLOCK, 40000 - 2 * BLOCK] * 3)

    def test_dynamic_sweep_builds_no_ifm_time_axis(self, tmp_path, monkeypatch):
        # only the record reads the time axis, and a sweep sub-run drops it
        from mwfi import rf_signals

        grids, grid_times = [], rf_signals.TimeGrid.times

        def times(grid):
            grids.append(grid)
            return grid_times(grid)

        monkeypatch.setattr(rf_signals.TimeGrid, "times", times)
        cfg = RunConfig.from_text(
            "mode = sweep\nsweep.mode = dynamic\nsweep.n_seeds = 2\nifm.mode = ratio\n"
            f"{SWEEP_TARGETS['dynamic']}\n"
        )
        run(cfg, out_dir=tmp_path)
        assert (tmp_path / "seed_1" / "report.txt").exists()
        assert build_plan(cfg).target.ifm_grid not in grids

    def test_seed_override_changes_noise(self, tmp_path):
        cfg = RunConfig.from_file(preset_path("fig3a"))
        r1 = run(cfg, seed=1, out_dir=tmp_path / "a")
        r2 = run(cfg, seed=2, out_dir=tmp_path / "b")
        assert r1.per_tone_errors_hz != r2.per_tone_errors_hz

    @pytest.mark.parametrize("override", [None, 8], ids=["config seed", "override"])
    def test_run_seed_reaches_the_noise(self, tmp_path, override):
        # port 2's noise is drawn from (run seed, STAGE_DYNAMIC, 0)
        cfg = RunConfig.from_text(f"mode = dynamic\nseed = 7\n{SWEEP_TARGETS['dynamic']}\n")
        run(cfg, seed=override, out_dir=tmp_path / "run")
        plan = build_plan(cfg)
        seed = derive_seed(7 if override is None else override, STAGE_DYNAMIC, 0)
        trace = simulate_ifm(plan.scenario, plan.models, plan.ifm_grid, 2, seed)
        ifm_trace_to_csv(trace, tmp_path / "want.csv")
        # the record's power column: each row, header too, is the trace's row
        # followed by the frequency
        record = (tmp_path / "run" / "inst_freq.csv").read_text().splitlines()
        want = (tmp_path / "want.csv").read_text().splitlines()
        assert [row.rsplit(",", 1)[0] for row in record] == want

    def test_chirp_sweep_aggregates_span_errors(self, tmp_path):
        lines = preset_path("fig5a").read_text().replace("mode = classify", "mode = sweep")
        cfg = RunConfig.from_text(
            lines + "sweep.mode = classify\nsweep.n_seeds = 2\ncalibration.step_hz = 5e9\n"
        )
        report = run(cfg, out_dir=tmp_path)
        assert report.extras["expected_label"] == "chirped"
        assert report.extras["classification_accuracy"] == "1.0000"
        rows = (tmp_path / "sweep.csv").read_text().splitlines()[1:]
        spans = [float(row.split(",")[2]) for row in rows]
        for seed, span in zip((1, 2), spans):
            sub = _read_report(tmp_path / f"seed_{seed}" / "report.txt")
            assert float(sub["span_error_frac"]) == pytest.approx(span, rel=1e-6)
        assert report.span_error_frac == pytest.approx(np.mean(spans), rel=1e-9)
        assert report.extras["span_error_frac_max"] == f"{max(spans):.6e}"

    def test_sweep_aggregates(self, tmp_path):
        cfg = RunConfig.from_text(
            "mode = sweep\n"
            "sweep.mode = classify\n"
            "sweep.n_seeds = 2\n"
            "scenario.tone1.freq_hz = 15e9\n"
        )
        report = run(cfg, out_dir=tmp_path)
        assert report.extras["expected_label"] == "single"
        assert report.extras["classification_accuracy"] == "1.0000"
        assert (tmp_path / "sweep.csv").exists()
        for seed in (1, 2):
            sub = _read_report(tmp_path / f"seed_{seed}" / "report.txt")
            assert float(sub["runtime_s"]) > 0  # each sub-run times itself
            assert not (tmp_path / f"seed_{seed}" / "scan_trace.csv").exists()

    def test_mixed_sweep_scores_no_label(self, tmp_path):
        # tones and a hop: the decision table names no mix, so the sweep keeps
        # what the classifier said and writes no expected label or accuracy,
        # and no sub-run scores its estimates against one kind's truth
        cfg = RunConfig.from_text(
            "mode = sweep\nsweep.mode = classify\nsweep.n_seeds = 1\n"
            "calibration.step_hz = 5e9\n"
            "scenario.tone1.freq_hz = 12e9\nscenario.tone2.freq_hz = 16e9\n"
            "scenario.hop1.freqs_hz = 10e9,13e9,18e9\nscenario.hop1.dwell_s = 80e-9\n"
        )
        run(cfg, out_dir=tmp_path)
        keys = _read_report(tmp_path / "report.txt")
        assert not {"expected_label", "classification", "classification_accuracy"} & set(keys)
        scores = {"per_tone_errors_hz", "rms_error_hz", "span_error_frac"}
        assert not scores & set(keys)
        sub = _read_report(tmp_path / "seed_1" / "report.txt")
        assert "estimated_hop_set_hz" in sub and not scores & set(sub)
        assert (tmp_path / "sweep.csv").read_text().splitlines()[1].endswith(",hopping")

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
        text = ("mode = sweep\nsweep.mode = calibrate\nsweep.n_seeds = 2\n"
                "calibration.step_hz = 5e9\n")
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


def test_classify_scores_no_mixed_scene(tmp_path):
    # a tone beside a chirp reads as one chirped envelope: its span is
    # measured, but neither emitter's truth is what the scan saw, so it is not
    # scored against the chirp's span alone
    cfg = RunConfig.from_text(
        "mode = classify\nscan.sample_rate_hz = 2718281\n"
        "calibration.lo_hz = 10e9\ncalibration.hi_hz = 20e9\ncalibration.step_hz = 5e9\n"
        "scenario.tone1.freq_hz = 12e9\n"
        "scenario.chirp1.center_hz = 15e9\nscenario.chirp1.span_hz = 2e9\n"
        "scenario.chirp1.pulse_width_s = 1.6e-6\nscenario.chirp1.repeat_interval_s = 4e-6\n"
    )
    report = run(cfg, out_dir=tmp_path)
    assert report.classification == "chirped"
    keys = _read_report(tmp_path / "report.txt")
    assert "measured_span_hz" in keys
    assert not {"per_tone_errors_hz", "rms_error_hz", "span_error_frac"} & set(keys)


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


# fig5a's chirp but for its center, which each case sets
CHIRP_LINES = (
    "scenario.chirp1.span_hz = 4e9\nscenario.chirp1.pulse_width_s = 1.6e-6\n"
    "scenario.chirp1.repeat_interval_s = 4e-6"
)

HOP_3 = "scenario.hop1.freqs_hz = 10e9,13e9,18e9"

CHIRP_5E_324 = (
    "scenario.chirp1.center_hz = 15e9\nscenario.chirp1.span_hz = 4e9\n"
    "scenario.chirp1.pulse_width_s = 5e-324\nscenario.chirp1.repeat_interval_s = 5e-324"
)

HOP_AT_1E8 = (
    "ifm.sample_rate_hz = 1e8\nscenario.hop1.freqs_hz = 12e9\nscenario.hop1.dwell_s = 80e-9"
)

# (valid, invalid) config lines of the settings that the plan test draws
PLAN_LINES = {
    "scan rate": (["scan.sample_rate_hz = 2718281"], ["scan.sample_rate_hz = 1e4"]),
    # a step of 1 Hz asks for 10^10 tones, more than MAX_TONES
    "cal step": (
        ["calibration.step_hz = 5e9"], ["calibration.step_hz = 0", "calibration.step_hz = 1"]
    ),
    # the scan runs from 8 GHz, exactly mrr.f_offset0_hz, to 39.99 GHz; calibration
    # keeps half a linewidth, 0.4375 GHz, above its low end
    "cal lo": (
        ["calibration.lo_hz = 8.5e9"],
        ["calibration.lo_hz = 0", "calibration.lo_hz = 5e9", "calibration.lo_hz = 8e9"],
    ),
    "cal band": (["calibration.hi_hz = 18e9"], ["calibration.hi_hz = 11e9"]),
    "tones": (
        ["measure.hi_hz = 16e9", "measure.step_hz = 2e9"],
        [
            "measure.hi_hz = 5e9", "measure.lo_hz = 0", "measure.lo_hz = inf",
            "measure.step_hz = 0", "measure.lo_hz = 5e9", "measure.step_hz = 1e3",
        ],
    ),
    "method": (["measure.method = fttm", "measure.method = ftpm"], ["measure.method = bogus"]),
    # 1e8 S/s is too slow only for the 80 ns dwell of "hop"
    # 1e15 S/s over the default 400 ns is 4e8 samples, more than MAX_SAMPLES
    "ifm rate": (
        ["ifm.sample_rate_hz = 2e8"],
        ["ifm.sample_rate_hz = 0", "ifm.sample_rate_hz = 1e8", "ifm.sample_rate_hz = 1e15"],
    ),
    "duration": (["ifm.duration_s = 200e-9"], ["ifm.duration_s = 1e-12"]),
    "lut mode": (["ifm.mode = single_port", "ifm.mode = ratio"], ["ifm.mode = bogus"]),
    "port": (["ifm.port = 1", "ifm.port = 2"], ["ifm.port = 3", "ifm.port = 1.5"]),
    "knots": (["ifm.n_knots = 64"], ["ifm.n_knots = 1", "ifm.n_knots = 1e8"]),
    # an ftpm measure of the default 10-20 GHz tones needs the band to hold them;
    # an f_ref of 1e308 Hz lies outside its key's range
    "band": (["ifm.band_lo_hz = 9e9"], ["ifm.band_hi_hz = 90e9", "mzi.f_ref_hz = 1e308"]),
    "target": (["sweep.mode = classify", "sweep.mode = dynamic"], ["sweep.mode = sweep"]),
    "seeds": (["sweep.n_seeds = 2"], ["sweep.n_seeds = 0"]),
    "hop": (
        ["scenario.hop1.freqs_hz = 12e9\nscenario.hop1.dwell_s = 80e-9"],
        [
            "scenario.hop1.dwell_s = 80e-9",
            "scenario.hop1.freqs_hz = 12e9\nscenario.hop1.dwell_s = 0",
        ],
    ),
    # a fwhm of 0, a tuning of 1e308 Hz/V^2 and 1e308 V lie outside their keys' ranges
    "ring": (["mrr.fwhm_hz = 500e6"], ["mrr.fwhm_hz = 0", "mrr.k_thermal_hz_per_v2 = 1e308"]),
    "drive": (["drive.v_min_v = 0"], ["drive.v_min_v = -1", "drive.v_max_v = 1e308"]),
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


@pytest.mark.parametrize("lut_mode", ["single_port", "ratio"])
@pytest.mark.parametrize("method", ["fttm", "ftpm"])
def test_every_measure_pair_builds_a_plan(method, lut_mode):
    # the fuzz above reaches one all-valid (method, table) pair about once in
    # 2,500 examples; here each pair builds beside every other valid line
    lines = ["mode = measure", f"measure.method = {method}", f"ifm.mode = {lut_mode}"]
    lines += [valid[0] for name, (valid, _) in PLAN_LINES.items()
              if name not in ("method", "lut mode")]
    try:
        plan = build_plan(RunConfig.from_text("\n".join(lines) + "\n"))
    finally:
        _scan_axis.cache_clear()
    assert plan.method == method
    if method == "ftpm":
        assert plan.lut.mode == lut_mode


def _key_tokens(kind, default, check=None):
    """Valid, boundary and nonsense tokens for a key of type kind with that
    default (None or MISSING when it has none) and run-key check."""
    if kind is bool:
        return ["true", "off", "1", "maybe"]
    if kind is str:
        allowed = list(check[1]) if check else ["out"]
        return allowed + ["bogus"]
    if kind is tuple:
        base = ",".join(repr(v) for v in default) if isinstance(default, tuple) else "12e9"
        return [base, f"{base},14e9", "-1e9", f"{base},nan", "a,b"]
    scaled = [repr(kind(default * k)) for k in (0.5, 2) if isinstance(default, (int, float))]
    ints = ["1", "2", "2.5", "1e3"] if kind is int else ["1e-12", "1e12"]
    return scaled + ints + ["0", "-1", "1e308", "nan", "-inf", "x"]


# every key the parser accepts, emitters by index 1, with its tokens
PLAN_TOKENS = {key: _key_tokens(kind, default, check)
               for key, (kind, default, check) in _RUN.items()}
for _section, (_model, _keys) in _SECTIONS.items():
    _prefix = f"scenario.{_section}1" if _section in _EMITTERS else _section
    _fields = {f.name: f for f in dataclasses.fields(_model)}
    for _key, _name in _keys.items():
        PLAN_TOKENS[f"{_prefix}.{_key}"] = _key_tokens(_fields[_name].type, _fields[_name].default)


def _within_caps(plan):
    if plan.target is not None:
        return _within_caps(plan.target)
    for tones in (plan.tones, plan.cal_tones):
        assert tones is None or tones.size <= MAX_TONES
    for grid in (plan.scan_grid, plan.ifm_grid):
        assert grid is None or grid.n_samples <= MAX_SAMPLES
    assert plan.lut is None or plan.lut.freqs.size <= MAX_SAMPLES


@settings(max_examples=60, deadline=None)
@given(keys=st.sets(st.sampled_from(sorted(PLAN_TOKENS)), max_size=6), data=st.data())
def test_drawn_plan_stays_within_caps_or_names_a_key(keys, data):
    # no simulation: only build_plan, on tokens drawn from the parser's tables
    lines = [f"{key} = {data.draw(st.sampled_from(PLAN_TOKENS[key]))}"
             for key in sorted(keys | {"mode"})]
    cfg = RunConfig.from_text("\n".join(lines) + "\n", source="drawn.cfg")
    held = {key.rsplit(".", n)[0] for key in cfg.values for n in range(3)}
    try:
        _within_caps(build_plan(cfg))
    except ConfigError as exc:
        m = re.match(r"drawn\.cfg: (key|section) '([a-z0-9_.]+)': ", str(exc))
        assert m, str(exc)
        # a run key or section read at its default, or an emitter's unset
        # key, is blamed where the held keys make it invalid
        kind, name = m.groups()
        read = set(_RUN) if kind == "key" else {key.rsplit(".", 1)[0] for key in _RUN}
        assert name in held | read or name.rsplit(".", 1)[0] in held, str(exc)
    finally:
        _scan_axis.cache_clear()


# emitter frequencies mostly where the presets put them, sometimes from 10x
# below to 10x above their key's range, 1 Hz to 1e13 Hz; amplitudes from
# 1e-160, whose square is subnormal, to 10x above their range's top, 1e6
_FREQ = st.one_of(*[st.floats(9e9, 21e9)] * 3, st.floats(-1.0, 14.0).map(lambda e: 10.0**e))
_AMPLITUDE = st.one_of(st.just(1.0), st.floats(-160.0, 7.0).map(lambda e: 10.0**e))
# tiny runs: a 200-sample IFM trace, or 1,000-sample scans after 3 calibration tones
TINY_RUN = {
    "dynamic": "ifm.duration_s = 2e-7",
    "classify": "drive.period_s = 0.002\nscan.sample_rate_hz = 5e5\ncalibration.step_hz = 5e9",
}
# the repeat interval of a chirp on each mode's time scale; its pulse width
# is a drawn fraction of it
CHIRP_TIMING = {"dynamic": 1e-7, "classify": 4e-6}


@settings(max_examples=60, deadline=None)
@given(mode=st.sampled_from(sorted(TINY_RUN)), data=st.data())
def test_drawn_scenario_runs_finite_or_names_what_it_holds(tmp_path_factory, mode, data):
    draw = data.draw
    values = {}
    for i in range(1, draw(st.integers(0, 2)) + 1):
        values[f"scenario.tone{i}.freq_hz"] = draw(_FREQ)
        values[f"scenario.tone{i}.amplitude"] = draw(_AMPLITUDE)
    if draw(st.booleans()):
        interval = CHIRP_TIMING[mode]
        width = interval * draw(st.floats(0.0, 1.0, exclude_min=True))
        values.update({
            "scenario.chirp1.center_hz": draw(_FREQ),
            "scenario.chirp1.span_hz": draw(st.floats(0.1e9, 8e9)),
            "scenario.chirp1.pulse_width_s": width,
            "scenario.chirp1.repeat_interval_s": interval,
            "scenario.chirp1.amplitude": draw(_AMPLITUDE),
        })
    if draw(st.booleans()):
        freqs = draw(st.lists(_FREQ, min_size=1, max_size=3))
        values["scenario.hop1.freqs_hz"] = ",".join(repr(f) for f in freqs)
        values["scenario.hop1.dwell_s"] = draw(st.sampled_from([2e-8, 8e-8]))
        values["scenario.hop1.amplitude"] = draw(_AMPLITUDE)
    if draw(st.booleans()):
        values["notch.enabled"] = "true"
    if mode == "dynamic" and draw(st.booleans()):
        lo = values["ifm.band_lo_hz"] = draw(_FREQ)
        values["ifm.band_hi_hz"] = lo + draw(st.floats(0.5e9, 80e9))
    lines = [f"mode = {mode}", TINY_RUN[mode]]
    lines += [f"{key} = {value!r}" if isinstance(value, float) else f"{key} = {value}"
              for key, value in values.items()]
    cfg = RunConfig.from_text("\n".join(lines) + "\n", source="drawn.cfg")
    try:
        report = run(cfg, out_dir=tmp_path_factory.mktemp("drawn"))
    except ConfigError as exc:
        m = re.match(r"drawn\.cfg: (key|section) '([a-z0-9_.]+)': ", str(exc))
        assert m, str(exc)
        kind, name = m.groups()
        held = {key.rsplit(".", n)[0]
                for key in cfg.values for n in range(1, key.count(".") + 1)}
        assert name in (cfg.values if kind == "key" else held), str(exc)
        return
    for line in report.lines():
        for token in line.split(" = ", 1)[1].split(","):
            try:
                value = float(token)
            except ValueError:
                continue
            assert np.isfinite(value), line


@settings(max_examples=60, deadline=None)
@example(lo=10e9, span=10e9, n=30, nudge=1.0)  # 10-20 GHz in thirds: the last tone overshot
@given(
    lo=st.floats(1e9, 30e9),
    span=st.floats(0.0, 20e9),
    n=st.integers(1, MAX_TONES + 2),
    nudge=st.floats(0.999, 1.001),
)
def test_tone_cap_counts_as_arange_does(lo, span, n, nudge):
    step = (span or 1e9) / n * nudge
    cfg = RunConfig.from_text(
        f"mode = measure\nmeasure.lo_hz = {lo!r}\nmeasure.hi_hz = {lo + span!r}\n"
        f"measure.step_hz = {step!r}\n"
    )
    lo, hi = cfg.get("measure.lo_hz"), cfg.get("measure.hi_hz")
    # a subnormal span over n tones can round the step to 0, which the
    # step's own check refuses by the same key
    count = max(np.arange(lo, hi + step / 2, step).size, 1) if step > 0 else np.inf
    if count > MAX_TONES:
        with pytest.raises(ConfigError, match="key 'measure.step_hz'"):
            _tone_list(cfg, "measure")
    else:
        tones = _tone_list(cfg, "measure")
        assert tones.size == count and np.all(tones <= hi)


# lo = hi with a step below hi's last digit: hi + step / 2 rounds to hi, and
# np.arange(lo, hi) holds no tone
ONE_TONE = "measure.lo_hz = 15e9\nmeasure.hi_hz = 15e9\nmeasure.step_hz = 1e-6\n"


@pytest.mark.parametrize("method", ["fttm", "ftpm"])
def test_equal_bounds_give_one_tone(method):
    cfg = RunConfig.from_text(f"mode = measure\nmeasure.method = {method}\n{ONE_TONE}")
    assert build_plan(cfg).tones.tolist() == [15e9]


@settings(max_examples=5, deadline=None)
@given(step=st.floats(0.5e9, 6e9), n_tones=st.integers(3, 5))
def test_lowest_admitted_calibration_tone_calibrates(tmp_path_factory, step, n_tones):
    # half a linewidth above the scan's low end, the first tone the plan
    # admits, a noiseless calibration fits a monotone lookup
    base = "mode = calibrate\npd.noise_sigma = 0\n"
    try:
        plan = build_plan(RunConfig.from_text(base))
        f_s = _scan_axis(plan.models.mrr, plan.drive, plan.scan_grid)[0]
    finally:
        _scan_axis.cache_clear()
    lo = float(f_s.min()) + plan.models.mrr.fwhm / 2
    cfg = RunConfig.from_text(
        f"{base}calibration.lo_hz = {lo!r}\ncalibration.step_hz = {step!r}\n"
        f"calibration.hi_hz = {lo + (n_tones - 1) * step!r}\n"
    )
    out = tmp_path_factory.mktemp("low")
    run(cfg, out_dir=out)
    assert (out / "calibration.txt").exists()


def test_ftpm_measure_of_one_tone_scores_it(tmp_path):
    # the empty list wrote a header-only estimates.csv and a report with no
    # score, exiting 0
    cfg = RunConfig.from_text(f"mode = measure\nmeasure.method = ftpm\n{ONE_TONE}")
    report = run(cfg, out_dir=tmp_path)
    assert len((tmp_path / "estimates.csv").read_text().splitlines()) == 2
    assert report.rms_error_hz is not None and len(report.per_tone_errors_hz) == 1


# a mode that reads each setting of PLAN_LINES, with the lines it needs
PLAN_READERS = {
    "scan rate": "mode = calibrate",
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
    "band": "mode = dynamic",
    "target": "mode = sweep",
    "seeds": "mode = sweep\nsweep.mode = dynamic",
    "hop": "mode = dynamic",
    "ring": "mode = calibrate",
    "drive": "mode = calibrate",
}
# what an invalid line is blamed on where it is not the line's own key
PLAN_BLAME = {
    "calibration.hi_hz = 11e9": "section 'calibration'",  # 2 tones, the fit needs 3
    "ifm.band_hi_hz = 90e9": "section 'ifm'",  # wider than half the MZI FSR
    "scenario.hop1.dwell_s = 80e-9": "key 'scenario.hop1.freqs_hz'",
    "scenario.hop1.freqs_hz = 12e9\nscenario.hop1.dwell_s = 0": "key 'scenario.hop1.dwell_s'",
    "calibration.lo_hz = 5e9": "section 'calibration'",  # below the scan's reach
    "calibration.lo_hz = 8e9": "section 'calibration'",  # at its low end
    "measure.lo_hz = 5e9": "section 'measure'",
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


# the keys an emitter needs beside a ranged key of its kind
RANGE_EMITTERS = {
    "tone": {"freq_hz": "15e9"},
    "chirp": {"center_hz": "15e9", "span_hz": "4e9", "pulse_width_s": "1e-7",
              "repeat_interval_s": "2e-7"},
    "hop": {"freqs_hz": "12e9", "dwell_s": "8e-8"},
}
_CAL_TONES = "calibration.lo_hz = {}\ncalibration.hi_hz = {}\ncalibration.step_hz = {}"
# ranged key -> (the lines beside its low end, beside its high end) where the
# defaults refuse that end: a partner held to lo < hi, tones moved into the
# scan's reach, a grid that resolves the time, a table that stays monotone
RANGE_BASES = {
    "drive.v_min_v": ("", "drive.v_max_v = 1e4\n" + _CAL_TONES.format(3e15, 5e15, 1e15)),
    "drive.v_max_v": ("mrr.k_thermal_hz_per_v2 = 1e13", ""),
    "drive.period_s": ("scan.sample_rate_hz = 1e19\nmrr.tau_thermal_s = 1e-15\n"
                       + _CAL_TONES.format(10e9, 12e9, 1e9),
                       "scan.sample_rate_hz = 10\nmrr.tau_thermal_s = 1"),
    "mrr.fsr_hz": ("mrr.fwhm_hz = 1", ""),
    "mrr.fwhm_hz": ("", "mrr.fsr_hz = 1e13\nmrr.k_thermal_hz_per_v2 = 1e11\n"
                        + _CAL_TONES.format(6e11, 8e11, 1e11)),
    "mrr.f_offset0_hz": ("mrr.k_thermal_hz_per_v2 = 1e13",
                         _CAL_TONES.format(1.001e13, 1.003e13, 1e10)),
    "mrr.k_thermal_hz_per_v2": (
        "drive.v_max_v = 1e4\nmrr.fwhm_hz = 1e6\n" + _CAL_TONES.format(8.01e9, 8.05e9, 2e7), ""
    ),
    "mrr.tau_thermal_s": ("scan.sample_rate_hz = 1e16\ndrive.period_s = 1e-12",
                          "scan.sample_rate_hz = 1\ndrive.period_s = 1e3\n"
                          + _CAL_TONES.format(10e9, 12e9, 1e9)),
    "modulator.bw_3db_hz": ("modulator.carrier_suppression_db = 100\n"
                            "modulator.image_suppression_db = 100\nifm.mode = ratio\n"
                            "ifm.band_lo_hz = 0\nifm.band_hi_hz = 1e3\nmzi.fsr_hz = 4e3\n"
                            "mzi.f_ref_hz = -1e3", ""),
    "mzi.fsr_hz": ("ifm.band_lo_hz = 1e10\nifm.band_hi_hz = 10000000000.5\nmzi.f_ref_hz = 1e10\n"
                   "modulator.image_suppression_db = 100", ""),
    "chirp.center_hz": ("scenario.chirp1.span_hz = 1", ""),
    "chirp.span_hz": ("", "scenario.chirp1.center_hz = 1e13"),
    "chirp.pulse_width_s": ("", "scenario.chirp1.repeat_interval_s = 1e3"),
    "chirp.repeat_interval_s": ("scenario.chirp1.pulse_width_s = 1e-15", ""),
    "hop.dwell_s": ("ifm.sample_rate_hz = 1e16\nifm.duration_s = 1e-12", ""),
    "ifm.duration_s": ("ifm.sample_rate_hz = 1e15", "ifm.sample_rate_hz = 1e3"),
    "ifm.band_lo_hz": ("", "ifm.band_hi_hz = 9.05e12"),
    "ifm.band_hi_hz": ("ifm.band_lo_hz = 0\nmzi.fsr_hz = 4\nmzi.f_ref_hz = -1",
                       "ifm.band_lo_hz = 9e12\nmzi.fsr_hz = 2e12\nmzi.f_ref_hz = 1e13"),
}


def _field_ranges():
    """{config key: range} of every ranged model field, an emitter's keyed by kind."""
    ranges = {}
    for section, (model, keys) in _SECTIONS.items():
        spec = {f.name: f for f in dataclasses.fields(model)}
        ranges.update((f"{section}.{key}", spec[name].metadata["range"])
                      for key, name in keys.items() if "range" in spec[name].metadata)
    return ranges


# every ranged key: the model fields' own ranges and the run keys' _RANGES
RANGES = _field_ranges() | _RANGES


def _range_config(key, end, value):
    """(mode, config key, text) of a config whose mode reads ranged key at
    value, with the lines RANGE_BASES gives for its low (end 0) or high end."""
    kind, field = key.split(".", 1)
    name = f"scenario.{kind}1.{field}" if kind in _EMITTERS else key
    values = {"mode": "calibrate" if kind in ("drive", "mrr") else "dynamic"}
    if kind == "notch":
        values["notch.enabled"] = "true"
    values.update({f"scenario.{kind}1.{k}": v for k, v in RANGE_EMITTERS.get(kind, {}).items()})
    values.update(line.split(" = ") for line in RANGE_BASES.get(key, ("", ""))[end].splitlines())
    values[name] = repr(value)
    return values["mode"], name, "".join(f"{k} = {v}\n" for k, v in values.items())


@pytest.mark.parametrize("key", sorted(RANGES))
def test_ranged_key_admits_its_ends_and_refuses_past_them(tmp_path, capsys, key):
    lo, hi = RANGES[key]
    for end, past in enumerate((math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf))):
        try:
            build_plan(RunConfig.from_text(_range_config(key, end, (lo, hi)[end])[2]))
        finally:
            _scan_axis.cache_clear()
        mode, name, text = _range_config(key, end, past)
        bad = tmp_path / "bad.cfg"
        bad.write_text(text)
        assert main([mode, "--config", str(bad), "--out", str(tmp_path / "out")]) == 2
        assert f"config error: {bad}: key '{name}': " in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


def test_every_numeric_model_key_has_a_range():
    # every number a model section or emitter reads, and the run keys that
    # bound a trace or a band
    numeric = {f"{section}.{key}" for section, (model, keys) in _SECTIONS.items()
               for key, name in keys.items()
               if {f.name: f.type for f in dataclasses.fields(model)}[name] in (float, tuple)}
    assert set(_field_ranges()) == numeric
    assert set(_RANGES) == {"ifm.duration_s", "ifm.band_lo_hz", "ifm.band_hi_hz"}
    assert len(RANGES) == 33 and all(lo < hi for lo, hi in RANGES.values())


def test_readme_range_table_matches_the_config():
    # a range cannot change in a model field, config._RANGES or README's table alone
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    rows = re.findall(r"^\| `([a-zN0-9_.]+)` \| (\S+) to (\S+) \|", readme, re.MULTILINE)
    documented = {re.sub(r"^scenario\.([a-z]+)N\.", r"\1.", key): (float(lo), float(hi))
                  for key, lo, hi in rows}
    assert len(documented) == len(rows)
    assert documented == RANGES


def test_run_defaults_match_the_engine_defaults():
    # an unset run key behaves as the engine function called without it
    lut = inspect.signature(build_lut).parameters
    default = {key: row[1] for key, row in _RUN.items()}
    assert (default["ifm.band_lo_hz"], default["ifm.band_hi_hz"]) == lut["band"].default
    assert lut["band"].default == DEFAULT_BAND
    for key in ("mode", "port", "n_knots"):
        assert default[f"ifm.{key}"] == lut[key].default, key


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
    "ifm.band_lo_hz": (lambda p: p["dynamic"].lut.band[0], 10e9, [9e9]),
    "ifm.band_hi_hz": (lambda p: p["dynamic"].lut.band[1], 20e9, [21e9]),
    "ifm.mode": (lambda p: p["dynamic"].lut.mode, "single_port", ["ratio"]),
    "ifm.port": (lambda p: p["dynamic"].lut.port, 2, [1]),
    "ifm.n_knots": (lambda p: p["dynamic"].lut.freqs.size, 4096, [64]),
    "sweep.n_seeds": (lambda p: p["sweep"].n_seeds, 10, [2]),
    "sweep.mode": (lambda p: p["sweep"].target.mode, None, ["calibrate", "dynamic", "measure"]),
}


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_run_keys_round_trip_to_plan_fields(data):
    keys = data.draw(st.sets(st.sampled_from(sorted(RUN_TRIP))))
    keys |= {key for key, (_, default, _) in RUN_TRIP.items() if default is None}
    drawn = {key: data.draw(st.sampled_from(RUN_TRIP[key][2])) for key in sorted(keys)}
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
        "mzi": models.mzi, "notch": models.notch, "pd": models.pd,
        "tone1": scenario.tones[0], "chirp1": scenario.chirps[0], "hop1": scenario.hops[0],
    }
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
    # the bar pyproject.toml sets for the suite itself
    "PYTHONWARNINGS": "error::RuntimeWarning",
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

    def test_sweep_reads_what_its_target_reads(self, tmp_path, capsys):
        # measure ignores the scenario, so a measure sweep does too: the
        # sweep built the scenario itself and exited 2
        lines = ("measure.method = ftpm\nmeasure.lo_hz = 15e9\nmeasure.hi_hz = 15e9\n"
                 "scenario.tone1.freq_hz = -1\n")
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(f"mode = sweep\nsweep.mode = measure\nsweep.n_seeds = 1\n{lines}")
        sweep, single = tmp_path / "sweep", tmp_path / "single"
        assert main(["sweep", "--config", str(cfg), "--out", str(sweep)]) == 0
        cfg.write_text(f"mode = measure\n{lines}")
        assert main(["measure", "--config", str(cfg), "--out", str(single)]) == 0
        kept = sweep / "seed_1" / "estimates.csv"
        assert kept.read_bytes() == (single / "estimates.csv").read_bytes()
        # a classify sweep reads the scenario, as classify does
        cfg.write_text(f"mode = sweep\nsweep.mode = classify\n{lines}")
        capsys.readouterr()
        assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "bad")]) == 2
        assert f"config error: {cfg}: key 'scenario.tone1.freq_hz'" in capsys.readouterr().err
        assert not (tmp_path / "bad").exists()

    @pytest.mark.parametrize(
        "line, name",
        [
            ("mrr.fwhm_hz = 0", "key 'mrr.fwhm_hz'"),
            ("mrr.fwhm_hz = nan", "mrr.fwhm_hz"),
            ("drive.v_max_v = 0", "key 'drive.v_max_v'"),
            ("pd.noise_sigma = nan", "pd.noise_sigma"),
            ("notch.enabled = true\nnotch.centers_hz = 10e9,-inf", "notch.centers_hz"),
            ("scenario.tone1.freq_hz = -1e9", "key 'scenario.tone1.freq_hz'"),
            # 10 ** (dB / 10) would overflow a float
            ("mzi.extinction_ratio_db = 1e12", "key 'mzi.extinction_ratio_db'"),
            # a negative rejection amplifies; at -1e308 dB 10 ** (-dB / 10) overflows
            ("notch.enabled = true\nnotch.rejection_db = -20", "key 'notch.rejection_db'"),
            ("notch.enabled = true\nnotch.rejection_db = -1e308", "key 'notch.rejection_db'"),
            ("scenario.hop1.freqs_hz = 10e9,13e9\nscenario.hop1.dwell_s = 80e-9\n"
             "scenario.hop1.amplitude = -2", "key 'scenario.hop1.amplitude'"),
            (f"{CHIRP_LINES}\nscenario.chirp1.center_hz = 15e9\nscenario.chirp1.amplitude = -1",
             "key 'scenario.chirp1.amplitude'"),
            # the sweep would run from -1 GHz to 3 GHz
            (f"{CHIRP_LINES}\nscenario.chirp1.center_hz = 1e9", "section 'scenario.chirp1'"),
            # amplitude**2 overflows a float
            ("scenario.tone1.freq_hz = 15e9\nscenario.tone1.amplitude = 1e200",
             "key 'scenario.tone1.amplitude'"),
            # emitters the scan never reaches (8 to 39.99 GHz); a 45 GHz tone
            # exited 1, and beside a 15 GHz tone it was labelled single
            ("scenario.tone1.freq_hz = 45e9", "section 'scenario.tone1'"),
            ("scenario.tone1.freq_hz = 15e9\nscenario.tone2.freq_hz = 45e9",
             "section 'scenario.tone2'"),
            (f"{CHIRP_LINES}\nscenario.chirp1.center_hz = 38e9", "section 'scenario.chirp1'"),
            ("scenario.hop1.freqs_hz = 10e9,13e9,50e9\nscenario.hop1.dwell_s = 80e-9",
             "section 'scenario.hop1'"),
            # the scan's duration over the period overflows to inf: the hop
            # read as one tone and the chirp as unknown, both exiting 0
            (f"{HOP_3}\nscenario.hop1.dwell_s = 5e-324", "key 'scenario.hop1.dwell_s'"),
            (CHIRP_5E_324, "key 'scenario.chirp1.pulse_width_s'"),
        ],
    )
    def test_invalid_value_exits_two(self, tmp_path, capsys, line, name):
        bad = tmp_path / "bad.cfg"
        bad.write_text(f"mode = classify\n{line}\n")
        out = tmp_path / "out"
        assert main(["classify", "--config", str(bad), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"config error: {bad}: " in err and name in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "mode, line, key",
        [
            ("measure", "scan.sample_rate_hz = 0", "scan.sample_rate_hz"),
            ("dynamic", "ifm.n_knots = 1", "ifm.n_knots"),
            ("dynamic", "ifm.port = 3", "ifm.port"),
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
            ("calibrate", "drive.v_min_v = -1", "drive.v_min_v"),
            # tones the scan never reaches: it runs from 8 to 39.99 GHz
            ("calibrate", "calibration.lo_hz = 5e9\ncalibration.step_hz = 5e9", "calibration"),
            # the ramp starts at rest, where the scan rate is zero: a tone at
            # the scan's low end exited 1, "fitted lookup is not monotone"
            ("calibrate", "calibration.lo_hz = 8e9\ncalibration.step_hz = 5e9\npd.noise_sigma = 0",
             "calibration"),
            ("calibrate", "calibration.lo_hz = 30e9\ncalibration.hi_hz = 50e9", "calibration"),
            ("measure", "measure.lo_hz = 5e9", "measure"),
            ("sweep", "sweep.mode = measure\nmeasure.hi_hz = 45e9", "measure"),
            # an ftpm estimate beyond the 10-20 GHz lookup band would clamp to its edge
            ("measure", "measure.method = ftpm\nmeasure.lo_hz = 21e9\nmeasure.hi_hz = 23e9",
             "measure"),
            ("measure", "measure.method = ftpm\nmeasure.lo_hz = 5e9\nmeasure.hi_hz = 9e9",
             "measure"),
            # more tones or samples than the plan caps, counted before any array exists
            ("calibrate", "calibration.step_hz = 1", "calibration.step_hz"),
            ("dynamic", "ifm.sample_rate_hz = 1e15", "ifm.sample_rate_hz"),
            ("measure", "measure.method = ftpm\nmeasure.step_hz = 1e3", "measure.step_hz"),
            ("classify", "scan.sample_rate_hz = 1e12", "scan.sample_rate_hz"),
            ("dynamic", "ifm.n_knots = 1e8", "ifm.n_knots"),
            # counts that overflowed to inf, now outside their keys' ranges
            ("calibrate", "scan.sample_rate_hz = 1e308\ndrive.period_s = 1e10",
             "drive.period_s"),
            ("dynamic", "ifm.duration_s = 1e300", "ifm.duration_s"),
            # emitters whose roll-off (f / bw)^2, fringe phase or notch detuning
            # squared overflowed; each run warned of the overflow and exited 0
            ("dynamic", "scenario.tone1.freq_hz = 1e308", "scenario.tone1.freq_hz"),
            ("dynamic", f"{HOP_3},1e300\nscenario.hop1.dwell_s = 80e-9",
             "scenario.hop1.freqs_hz"),
            ("dynamic", f"{CHIRP_LINES}\nscenario.chirp1.center_hz = 1e308",
             "scenario.chirp1.center_hz"),
            ("dynamic", "notch.enabled = true\nnotch.fwhm_each_hz = 1e-300\n"
             "scenario.tone1.freq_hz = 15e9", "notch.fwhm_each_hz"),
            # a trace whose samples summed past the largest float in a running
            # mean or the FTPM mean; each overflowed with a RuntimeWarning (the
            # first was found by test_drawn_scenario_runs_finite_or_names_what_it_holds)
            ("classify", f"{TINY_RUN['classify']}\n"
             "scenario.tone1.freq_hz = 9e9\nscenario.tone1.amplitude = 1e153",
             "scenario.tone1.amplitude"),
            # detector noise past the largest float: the dynamic run wrote inf
            # rows and exited 0, the calibration overflowed a running mean
            ("dynamic", "scenario.tone1.freq_hz = 30e9\nscenario.tone1.amplitude = 1.3e154\n"
             "pd.noise_sigma = 10", "pd.noise_sigma"),
            ("calibrate", "pd.noise_sigma = 1e306", "pd.noise_sigma"),
        ],
    )
    def test_invalid_run_setting_exits_two(self, tmp_path, capsys, mode, line, key):
        bad = tmp_path / "bad.cfg"
        bad.write_text(f"mode = {mode}\n{line}\n")
        out = tmp_path / "out"
        assert main([mode, "--config", str(bad), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        # an emitter's section is given whole, as it holds a dot too
        where = key if " " in key else f"key '{key}'" if "." in key else f"section '{key}'"
        assert f"config error: {bad}: {where}" in err
        assert not out.exists()

    @pytest.mark.parametrize("mode", ["dynamic", "classify"])
    @pytest.mark.parametrize(
        "lines",
        [
            # each square is finite, their sum is not; both lie outside the
            # amplitude's range
            "scenario.tone1.freq_hz = 12e9\nscenario.tone1.amplitude = 1.3e154\n"
            "scenario.tone2.freq_hz = 15e9\nscenario.tone2.amplitude = 1.3e154",
        ],
        ids=["two tones"],
    )
    def test_overflowing_power_sum_exits_two(self, tmp_path, capsys, mode, lines):
        bad = tmp_path / "bad.cfg"
        bad.write_text(f"mode = {mode}\n{lines}\n")
        out = tmp_path / "out"
        assert main([mode, "--config", str(bad), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"config error: {bad}: key 'scenario.tone1.amplitude': " in err
        assert not out.exists()

    def test_uncountable_dynamic_chirp_exits_two(self, tmp_path, capsys):
        # as in classify, the repeats of the run's duration overflowed to inf;
        # a pulse width of 5e-324 s lies outside its key's range
        bad = tmp_path / "bad.cfg"
        bad.write_text(f"mode = dynamic\n{CHIRP_5E_324}\n")
        out = tmp_path / "out"
        assert main(["dynamic", "--config", str(bad), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"config error: {bad}: key 'scenario.chirp1.pulse_width_s': " in err
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
            # the emitters' amplitudes set the power scale
            "link.gain = 1.0",
            # a trace holds one scan period
            "drive.n_periods = 1",
            "drive.n_periods = 2",
            # the IFM read-out's floor is ifm_engine.NOISE_FLOOR, its range the lookup band
            "ifm.noise_floor = 0.05",
            "ifm.upper_limit_hz = 20e9",
        ],
    )
    def test_removed_keys_exit_two(self, tmp_path, capsys, line):
        bad = tmp_path / "bad.cfg"
        bad.write_text(f"mode = classify\nscenario.tone1.freq_hz = 15e9\n{line}\n")
        out = tmp_path / "out"
        assert main(["classify", "--config", str(bad), "--out", str(out)]) == 2
        assert f"unknown key {line.split(' = ')[0]!r}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "mode, lines",
        [
            ("calibrate", ""),
            ("measure", "measure.method = ftpm\nmeasure.lo_hz = 22e9\nmeasure.hi_hz = 28e9\n"
             "measure.step_hz = 2e9\n"),
            ("dynamic", ""),
        ],
    )
    def test_band_alone_sets_the_read_out_range(self, tmp_path, mode, lines):
        # each exited 2 on the former ifm.upper_limit_hz, whose 20 GHz
        # default lay outside the band, also where the mode never read it
        cfg = tmp_path / "band.cfg"
        cfg.write_text(f"mode = {mode}\nifm.band_lo_hz = 21e9\nifm.band_hi_hz = 30e9\n{lines}")
        assert main([mode, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0

    def test_ftpm_sweep_in_thirds_exits_zero(self, tmp_path):
        # 10-20 GHz in thirds: np.arange put the last tone at
        # 20000000000.00002 Hz, outside the lookup band, and the run exited 2
        cfg = tmp_path / "thirds.cfg"
        cfg.write_text("mode = measure\nmeasure.method = ftpm\n"
                       "measure.step_hz = 333333333.3333333\n")
        assert main(["measure", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0

    def test_tone_inside_a_raised_band_reads_out(self, tmp_path):
        # 392 of the 400 samples read NOISE while the former ifm.upper_limit_hz
        # stayed at 20 GHz below the band's top
        cfg = tmp_path / "band.cfg"
        cfg.write_text("mode = dynamic\nseed = 1\nifm.band_hi_hz = 21e9\n"
                       "scenario.tone1.freq_hz = 20.5e9\n")
        assert main(["dynamic", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
        report = _read_report(tmp_path / "out" / "report.txt")
        assert report["n_samples"] == "400"
        assert int(report["n_noise_flagged"]) < 40

    def test_hop_set_outside_the_calibration_is_empty(self, tmp_path):
        # found by test_drawn_scenario_runs_finite_or_names_what_it_holds:
        # emitters at 8.1-9.9 GHz, inside the scan's reach but below the
        # 10-20 GHz calibration, read as hopping and exited 1
        cfg = tmp_path / "low.cfg"
        cfg.write_text(
            f"mode = classify\n{TINY_RUN['classify']}\nscenario.tone1.freq_hz = 9e9\n"
            "scenario.tone2.freq_hz = 9e9\nscenario.chirp1.center_hz = 9e9\n"
            "scenario.chirp1.span_hz = 1724895126.0\nscenario.chirp1.pulse_width_s = 1.6e-6\n"
            "scenario.chirp1.repeat_interval_s = 4e-6\n"
        )
        assert main(["classify", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
        report = _read_report(tmp_path / "out" / "report.txt")
        assert report["classification"] == "hopping"
        assert report["estimated_hop_set_hz"] == ""

    def test_power_far_past_full_scale_reads_noise(self, tmp_path):
        # a 60 GHz tone at the largest amplitude in range, over a table that
        # peaks at 20 GHz (near the largest float, power / full scale
        # overflowed with a RuntimeWarning)
        cfg = tmp_path / "bright.cfg"
        cfg.write_text("mode = dynamic\nscenario.tone1.freq_hz = 60e9\n"
                       "scenario.tone1.amplitude = 1e6\n")
        assert main(["dynamic", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
        report = _read_report(tmp_path / "out" / "report.txt")
        assert report["n_noise_flagged"] == report["n_samples"] == "400"

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

    @pytest.mark.parametrize("flag", [True, False], ids=["flag", "config"])
    @pytest.mark.parametrize(
        "link, below",
        [(False, ""), (False, "sub/dir"), (True, ""), (True, "sub/dir")],
        ids=["the file", "below it", "a dangling link", "below the link"],
    )
    def test_out_dir_through_a_file_exits_two(self, tmp_path, capsys, flag, link, below):
        # it ran the whole run, then exited 1 on mkdir ("File exists", "Not a
        # directory"); the walk to an existing ancestor stepped over a
        # dangling link, as exists() follows it
        blocker = tmp_path / "taken"
        if link:
            blocker.symlink_to(tmp_path / "nowhere")
        else:
            blocker.write_text("kept\n")
        out = blocker / below if below else blocker
        cfg = tmp_path / "run.cfg"
        cfg.write_text("mode = dynamic\n" + ("" if flag else f"out_dir = {out}\n"))
        args = ["dynamic", "--config", str(cfg)] + (["--out", str(out)] if flag else [])
        assert main(args) == 2
        source = "out override" if flag else str(cfg)
        assert f"config error: {source}: key 'out_dir': " in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run.cfg", "taken"]
        if link:
            assert os.readlink(blocker) == str(tmp_path / "nowhere")
        else:
            assert blocker.read_text() == "kept\n"

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

    # a short drive keeps these scans at 20,000 samples
    @pytest.mark.parametrize(
        "mode, lines, error",
        [
            # at this noise level and seed, calibration tones 18 and 19 GHz
            # each give 2 pulses (TestToneScans.test_error_surfaces_at_its_tone)
            ("calibrate", "pd.noise_sigma = 0.03\nseed = 13\n",
             "calibration tone 18.000 GHz produced 2 pulses (need 1)"),
            # the calibration ends at 20 GHz: 24, 28, 32 and 36 GHz lie beyond it
            ("measure", "measure.lo_hz = 12e9\nmeasure.hi_hz = 36e9\nmeasure.step_hz = 4e9\n",
             "tone 24.000 GHz gave 0 in-band pulses"),
        ],
        ids=["calibration tone", "measure tone"],
    )
    def test_failing_tone_exits_one_and_stops_workers(self, tmp_path, capsys, mode, lines, error):
        cfg = tmp_path / "fails.cfg"
        cfg.write_text(f"mode = {mode}\ndrive.period_s = 0.02\n{lines}")
        before = threading.active_count()
        assert main([mode, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == f"mwfi: error: {mode} stage failed: {error}\n"
        assert threading.active_count() == before

    @pytest.mark.parametrize(
        "text",
        [
            # a chirp scene: calibration and the scene scan draw noise on a worker
            "mode = classify\ncalibration.step_hz = 5e9\nscenario.chirp1.center_hz = 15e9\n"
            "scenario.chirp1.span_hz = 4e9\nscenario.chirp1.pulse_width_s = 1.6e-6\n"
            "scenario.chirp1.repeat_interval_s = 4e-6\n",
            "mode = dynamic\nscenario.hop1.freqs_hz = 10e9,13e9\nscenario.hop1.dwell_s = 80e-9\n"
            "ifm.sample_rate_hz = 1e9\nifm.duration_s = 40e-6\n",
        ],
        ids=["classify chirp", "dynamic"],
    )
    def test_program_runs_on_the_main_thread_only(self, tmp_path, text):
        # the benchmark's tracer keeps one span stack: a worker thread may
        # fill noise buffers, but no function of the program may run on it
        import mwfi

        package = os.path.dirname(os.path.abspath(mwfi.__file__))
        off_main = []  # code files of the Python frames other threads entered

        def profile(frame, event, arg):
            if event == "call":
                off_main.append(os.path.abspath(frame.f_code.co_filename))

        threading.setprofile(profile)  # for threads started from here on
        try:
            run(RunConfig.from_text(text), out_dir=tmp_path)
        finally:
            threading.setprofile(None)
        assert not [f for f in off_main if f.startswith(package + os.sep)]
        if "classify" in text:
            assert off_main  # the worker ran, and the profile saw it

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

    # runs the CLI in a cold interpreter, then prints its exit code, the
    # scipy modules it loaded and whether it loaded the scan thread pool
    COLD = (
        "import json, sys\n"
        "from mwfi.cli import main\n"
        "code = main(sys.argv[1:])\n"
        "scipy = [m for m in sys.modules if m.split('.')[0] == 'scipy']\n"
        "print(json.dumps([code, scipy, 'concurrent.futures' in sys.modules]))\n"
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
        got, loaded, pool = json.loads(proc.stdout.splitlines()[-1])
        assert got == code, proc.stderr
        assert bool(loaded) == scipy, loaded
        # only the scans import concurrent.futures (and logging with it)
        assert pool == scipy

    def test_reproducible_outputs(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            proc = self._run("classify", "--config", "fig4a", "--seed", "7", "--out", str(out))
            assert proc.returncode == 0, proc.stderr
        assert (a / "scan_trace.csv").read_bytes() == (b / "scan_trace.csv").read_bytes()
