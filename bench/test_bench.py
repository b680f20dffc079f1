"""Tests of the benchmark's own machinery, on tiny configs.

    python3 -m pytest bench -q
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, BENCH)

import mwfi  # noqa: E402
import mwfi.cli as cli  # noqa: E402
from mwfi.config import RunConfig  # noqa: E402

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import TARGETS, Tracer, mwfi_modules, span_name  # noqa: E402

TINY = {
    # 3 calibration tones and one measured tone: 4 scans at 1 MS/s
    "measure.cfg": """\
mode = measure
measure.method = fttm
measure.lo_hz = 15e9
measure.hi_hz = 15e9
calibration.lo_hz = 10e9
calibration.hi_hz = 20e9
calibration.step_hz = 5e9
""",
    "classify.cfg": """\
mode = classify
calibration.lo_hz = 10e9
calibration.hi_hz = 20e9
calibration.step_hz = 5e9
scenario.tone1.freq_hz = 10e9
scenario.tone2.freq_hz = 15e9
""",
    "dynamic.cfg": """\
mode = dynamic
scenario.hop1.freqs_hz = 10e9,13e9,15e9,17e9
scenario.hop1.dwell_s = 80e-9
notch.enabled = true
ifm.duration_s = 640e-9
""",
}


def _no_check(out, seed):
    return []


@pytest.fixture(scope="module")
def tiny(tmp_path_factory):
    config_dir = tmp_path_factory.mktemp("configs")
    for name, text in TINY.items():
        (config_dir / name).write_text(text)
    calls = [
        workloads.Invocation(name, name[:-4], name, 3, 0, _no_check) for name in TINY
    ]
    return str(config_dir), calls


def _traced_pass(tiny, tmp_path):
    config_dir, calls = tiny
    tracer = Tracer()
    with tracer:
        result = run.run_pass(cli, calls, config_dir, str(tmp_path), tracer)
    return result, tracer


def test_self_times_sum_to_traced_wall(tiny, tmp_path):
    result, tracer = _traced_pass(tiny, tmp_path)
    self_s = result["self_s"]
    assert all(v >= 0.0 for v in self_s.values())
    # self times partition the outermost spans exactly ...
    assert sum(self_s.values()) == pytest.approx(result["root_s"], rel=1e-9, abs=1e-9)
    # ... and the outermost spans cover the traced wall, apart from the
    # benchmark's own glue between invocations
    uncovered = result["host_s"] - result["root_s"]
    assert 0.0 <= uncovered <= 0.02 * result["host_s"] + 0.005
    assert tracer.self_times()[span_name("cli", "main")] > 0.0


def test_counts_and_digest_repeat_exactly(tiny, tmp_path):
    first, _ = _traced_pass(tiny, tmp_path)
    second, _ = _traced_pass(tiny, tmp_path)
    plain = run.run_pass(cli, tiny[1], tiny[0], str(tmp_path))
    assert first["counts"] == second["counts"]
    assert first["digests"] == second["digests"] == plain["digests"]
    assert first["bytes"] == second["bytes"] == plain["bytes"] > 0
    assert all(not reasons for reasons in first["reasons"])
    measure = first["counts"][0]
    assert measure["scan_engine.scan_frequency"] == {"calls": 4, "distinct": 1}
    assert measure["scan_engine.simulate_scan"]["samples"] == 4 * 250_000
    assert measure["scan_engine.detect_pulses"] == {"calls": 4, "events": 4}
    assert first["counts"][2]["ifm_engine.inst_freq_to_csv"]["bytes"] > 0


def _snapshot():
    state = {mod.__name__: dict(vars(mod)) for mod in mwfi_modules()}
    state["RunConfig"] = dict(RunConfig.__dict__)
    return state


def _same(a, b):
    return a.keys() == b.keys() and all(
        a[mod].keys() == b[mod].keys() and all(a[mod][k] is b[mod][k] for k in a[mod])
        for mod in a
    )


def test_uninstall_restores_module_attributes(tiny, tmp_path):
    before = _snapshot()
    tracer = Tracer()
    tracer.install()
    try:
        assert not _same(before, _snapshot())
        # the re-export in harness is patched, not only the defining module
        assert mwfi.harness.simulate_scan is mwfi.scan_engine.simulate_scan
        assert mwfi.harness.simulate_scan.__wrapped__ is before["mwfi.scan_engine"]["simulate_scan"]
        run.run_pass(cli, tiny[1], tiny[0], str(tmp_path), tracer)
    finally:
        tracer.uninstall()
    assert _same(before, _snapshot())


def test_every_call_site_is_traced(tiny, tmp_path):
    """Calls seen by the interpreter's profiler equal the tracer's calls."""
    codes = {}
    for module, attr, _, _ in TARGETS:
        owner = getattr(mwfi, module)
        if "." in attr:
            cls, meth = attr.split(".")
            fn = getattr(getattr(owner, cls), meth)
        else:
            fn = getattr(owner, attr)
        codes[getattr(fn, "__func__", fn).__code__] = span_name(module, attr)
    seen = dict.fromkeys(codes.values(), 0)

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in codes:
            seen[codes[frame.f_code]] += 1

    config_dir, calls = tiny
    argvs = [inv.argv(config_dir, str(tmp_path / inv.name)) for inv in calls]
    argvs.append(["dynamic", "--config", "fig6c", "--out", str(tmp_path / "preset")])
    tracer = Tracer()
    with tracer:
        sys.setprofile(profile)
        try:
            for argv in argvs:
                assert run.invoke(cli, argv)[0] == 0
        finally:
            sys.setprofile(None)
    traced = {name: c.get("calls", 0) for name, c in tracer.counts.items()}
    assert traced == seen
    assert all(traced[name] > 0 for name in (
        "scan_engine.simulate_scan", "photonic_link.pd_detect", "classifier.classify",
        "rf_signals.instantaneous_components", "presets.preset_path", "seeding.derive_seed",
    ))


def test_benchmark_json_lists_the_printed_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "fttm_measure", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_checks_flag_wrong_outputs(tmp_path):
    sub = tmp_path / "seed_4"
    sub.mkdir()
    (sub / "report.txt").write_text("mode = classify\nclassification = chirped\nruntime_s = 1.0\n")
    two_tone = workloads.build("classify_sweep", 4, str(tmp_path / "cfg"))[0]
    assert two_tone.check(str(tmp_path), 4) == ["classified 'chirped', want 'multiple'"]
    (sub / "report.txt").write_text(
        "classification = hopping\nper_tone_errors_hz = 1e6,-3e8,2e6\n"
    )
    hop = workloads.build("classify_sweep", 4, str(tmp_path / "cfg"))[2]
    assert hop.check(str(tmp_path), 4) == ["hop error 3.0000e+08 Hz >= 2.5e+08"]


def test_digest_ignores_only_the_runtime_line(tmp_path):
    (tmp_path / "report.txt").write_text("seed = 1\nruntime_s = 1.000\n")
    (tmp_path / "trace.csv").write_text("1,2\n")
    digest, size = workloads.digest_dir(str(tmp_path))
    (tmp_path / "report.txt").write_text("seed = 1\nruntime_s = 2.000\n")
    assert workloads.digest_dir(str(tmp_path)) == (digest, size)
    (tmp_path / "trace.csv").write_text("1,3\n")
    assert workloads.digest_dir(str(tmp_path))[0] != digest
