"""Byte-stability of run artifacts: SHA-256 digests pinned per file.

Every artifact of three shipped presets, a tiny calibration, four tiny
FTTM configs, a tiny classify sweep, a tiny ratio-mode dynamic run, a tiny
ratio-mode FTPM measure and two 40 us dynamic runs is hashed, sub-run
directories included; report.txt is hashed without its runtime_s line. A
change to the numerics, the CSV formatting or the report layout fails
here, as does a report key that README.md does not name. Update a digest
only for a deliberate change of output, and record why in CHANGES.md.
"""

import hashlib
from pathlib import Path

import pytest

from mwfi.config import RunConfig
from mwfi.harness import run
from mwfi.presets import preset_path

# 3 calibration tones and one measured tone: 4 scans at 1 MS/s
TINY_MEASURE = """\
mode = measure
measure.method = fttm
measure.lo_hz = 15e9
measure.hi_hz = 15e9
calibration.lo_hz = 10e9
calibration.hi_hz = 20e9
calibration.step_hz = 5e9
"""

# the 3 calibration tones alone: 3 scans at 1 MS/s, and the FTPM table
TINY_CALIBRATE = """\
mode = calibrate
calibration.lo_hz = 10e9
calibration.hi_hz = 20e9
calibration.step_hz = 5e9
"""

TINY_CLASSIFY = """\
mode = classify
calibration.lo_hz = 10e9
calibration.hi_hz = 20e9
calibration.step_hz = 5e9
scenario.tone1.freq_hz = 10e9
scenario.tone2.freq_hz = 15e9
"""

# fig5a's chirp and fig5e's hops with 3 calibration tones: the span and
# hop-set paths of classify
TINY_SCAN = """\
mode = classify
scan.sample_rate_hz = 2718281
calibration.lo_hz = 10e9
calibration.hi_hz = 20e9
calibration.step_hz = 5e9
"""

TINY_CHIRP = TINY_SCAN + """\
scenario.chirp1.center_hz = 15e9
scenario.chirp1.span_hz = 4e9
scenario.chirp1.pulse_width_s = 1.6e-6
scenario.chirp1.repeat_interval_s = 4e-6
"""

TINY_HOP = TINY_SCAN + """\
scenario.hop1.freqs_hz = 10e9,13e9,18e9
scenario.hop1.dwell_s = 80e-9
"""

# TINY_CLASSIFY over seeds 1 and 2: the sub-runs keep their reports only
TINY_SWEEP = """\
mode = sweep
sweep.mode = classify
sweep.n_seeds = 2
calibration.lo_hz = 10e9
calibration.hi_hz = 20e9
calibration.step_hz = 5e9
scenario.tone1.freq_hz = 10e9
scenario.tone2.freq_hz = 15e9
"""

# fig6f's hops and bandstop read through the two-port ratio lookup
TINY_RATIO = """\
mode = dynamic
scenario.hop1.freqs_hz = 10e9,13e9,15e9,17e9
scenario.hop1.dwell_s = 80e-9
notch.enabled = true
notch.centers_hz = 9.75e9,10e9,10.25e9
notch.fwhm_each_hz = 300e6
notch.rejection_db = 20
ifm.sample_rate_hz = 1e9
ifm.duration_s = 2e-6
ifm.mode = ratio
"""

# three tones off the band edges read by FTPM through the ratio lookup: two
# 2,000-sample port traces per tone
TINY_FTPM_RATIO = """\
mode = measure
measure.method = ftpm
measure.lo_hz = 11e9
measure.hi_hz = 18e9
measure.step_hz = 3.5e9
ifm.duration_s = 2e-6
ifm.mode = ratio
"""

# fig6f for 40 us: 40,000 samples, so the power sum and the detector noise
# cross two block boundaries (rf_signals.BLOCK)
TINY_LONG_DYNAMIC = """\
mode = dynamic
seed = 1
scenario.hop1.freqs_hz = 10e9,13e9,15e9,17e9
scenario.hop1.dwell_s = 80e-9
notch.enabled = true
notch.centers_hz = 9.75e9,10e9,10.25e9
notch.fwhm_each_hz = 300e6
notch.rejection_db = 20
ifm.sample_rate_hz = 1e9
ifm.duration_s = 40e-6
"""

# fig5a's chirp beside fig6f's hops and bandstop, read through the ratio
# lookup for 40 us: the two-port path with per-sample tracks over three blocks
TINY_LONG_RATIO = """\
mode = dynamic
seed = 3
scenario.chirp1.center_hz = 15e9
scenario.chirp1.span_hz = 4e9
scenario.chirp1.pulse_width_s = 1.6e-6
scenario.chirp1.repeat_interval_s = 4e-6
scenario.hop1.freqs_hz = 10e9,13e9,15e9,17e9
scenario.hop1.dwell_s = 80e-9
notch.enabled = true
notch.centers_hz = 9.75e9,10e9,10.25e9
notch.fwhm_each_hz = 300e6
notch.rejection_db = 20
ifm.sample_rate_hz = 1e9
ifm.duration_s = 40e-6
ifm.mode = ratio
"""

GOLDEN = {
    "fig3b": {
        "estimates.csv": "64e84fca58e70c355ee9796a349bdb8acb959131ee81187ad953830fcece53e9",
        "report.txt": "354571627a187aa1d736ccf63b0b31c373527b4c37fd6356cb45744910170971",
    },
    "fig6c": {
        "inst_freq.csv": "128964ff399891c639be885de0aefdc0105091b7c8aca792f5fa017489de542d",
        "lut.csv": "6ae1c9bf3d475ac27d12160ac483fb7a6aefcb4fb573ac5faebdf7af4ddae733",
        "report.txt": "fb18c08f4b487c657b4dd333a30f446c6205e5194473848601b4929fc73c0e5c",
    },
    "fig6f": {
        "inst_freq.csv": "4d11836f7e10c5dc4a3546ac6da2795731810f61746c30d944fec4347c1b836c",
        "lut.csv": "6ae1c9bf3d475ac27d12160ac483fb7a6aefcb4fb573ac5faebdf7af4ddae733",
        "report.txt": "b022b5ec61ea3a533b04d89837558541c604428272be5fb51d10bd75031dd240",
    },
    "tiny_calibrate": {
        "calibration.txt": "cf7d13997ea6f360defbdcf50e956534f794fc8a917e2ff584491a1f7717c1fc",
        "lut.csv": "6ae1c9bf3d475ac27d12160ac483fb7a6aefcb4fb573ac5faebdf7af4ddae733",
        "report.txt": "4eae2ae19d1d7ecb7f675b79322b0a4f3f89a2dc79a83237e0334eda91e4c4e2",
    },
    "tiny_chirp": {
        "report.txt": "001bd2742be7ce23de1bbae73d5235fb8aa7559f126400b00116753fb588d070",
        "scan_trace.csv": "dadfc575aaa5d11ba8e94058c4869b5253051faa15a0725d662b62a83aadfaf1",
    },
    "tiny_classify": {
        "report.txt": "8faa401e601d15c9d3ca0014a670dcbe57abb9b0e1b845cb250e8a8ce1149ffa",
        "scan_trace.csv": "a9972397705c6fa6dcc0e02f1e4fff62ae767a8d4b7aa4d44e5e5898296249c8",
    },
    "tiny_hop": {
        "report.txt": "2ba86615c2e911a3cee93a9d0670cd85358467eac181f1f1ff39677b7e44a0ae",
        "scan_trace.csv": "2b8b25389ba366fe75e2f648112c181f2f0a2faa19ace17eae43c874c5082c40",
    },
    "tiny_ratio": {
        "inst_freq.csv": "111ea9c02284a95801264abfbeccbf929500f1c7265d971553905bc9e397a884",
        "lut.csv": "e33e65a278584bd77e43a599afd8f2572eaf83c4bd61bb5c1620a0828aa3a0f0",
        "report.txt": "ff8ab0c328ff8548dc09d14e43f81437576469d83a79433be97a2c5b74d4aea5",
    },
    "tiny_ftpm_ratio": {
        "estimates.csv": "e3e6a54caac02737f3b928a647eecb1611262c6d847d3d8eff1c02ef00186258",
        "report.txt": "59c5d4faef7ee4ce2be0e7264e208bdecf6a0d199893ccf6dc0e081ceac32345",
    },
    "tiny_sweep": {
        "report.txt": "d4a33e31248d4003b88fce4c45e760acf889fd6dc1c72124f9eb205f8fca1bc7",
        "seed_1/report.txt": "8faa401e601d15c9d3ca0014a670dcbe57abb9b0e1b845cb250e8a8ce1149ffa",
        "seed_2/report.txt": "f10b39e1b5068a557b3500fafeb53f31dee87a4021294b629383f322537bee83",
        "sweep.csv": "54b541b17e50b3b2f3b5c6ef1357146cd0cabbd10c7048e741bd1b3dfcbf7ed4",
    },
    "tiny_long_dynamic": {
        "inst_freq.csv": "7abf08b8910f739974ce9c2f8c6ca63633eec01fa964a57f1ad68c19490e1b2f",
        "lut.csv": "6ae1c9bf3d475ac27d12160ac483fb7a6aefcb4fb573ac5faebdf7af4ddae733",
        "report.txt": "95d3c13e787dda0ec0ad2a3a91dc289959ae5cc21d1e83686dfd95589ef2e002",
    },
    "tiny_long_ratio": {
        "inst_freq.csv": "95fd4390d791acfcf9666d20351cc742184a256720ac165a4d6d53586ad7f591",
        "lut.csv": "e33e65a278584bd77e43a599afd8f2572eaf83c4bd61bb5c1620a0828aa3a0f0",
        "report.txt": "703f4d631b3d6825ed2a71142bfeddb90f2392f759aeaafb67e44e0951118760",
    },
    "tiny_measure": {
        "calibration.txt": "cf7d13997ea6f360defbdcf50e956534f794fc8a917e2ff584491a1f7717c1fc",
        "estimates.csv": "0098136da7abf25e955b5fb45d3ff093f939820da3fa03899e7fc796d695d366",
        "report.txt": "03a5c0b2883c779184a3ca67a510e71899d11a3d8709c15c20ac1451066fe210",
    },
}


TINY = {
    "tiny_measure": TINY_MEASURE,
    "tiny_calibrate": TINY_CALIBRATE,
    "tiny_sweep": TINY_SWEEP,
    "tiny_classify": TINY_CLASSIFY,
    "tiny_chirp": TINY_CHIRP,
    "tiny_hop": TINY_HOP,
    "tiny_ratio": TINY_RATIO,
    "tiny_ftpm_ratio": TINY_FTPM_RATIO,
    "tiny_long_dynamic": TINY_LONG_DYNAMIC,
    "tiny_long_ratio": TINY_LONG_RATIO,
}


def _config(name):
    if name in TINY:
        return RunConfig.from_text(TINY[name])
    return RunConfig.from_file(preset_path(name))


def artifact_digests(out_dir) -> dict:
    """SHA-256 of every file under out_dir, keyed by its relative path."""
    digests = {}
    for path in sorted(p for p in out_dir.rglob("*") if p.is_file()):
        data = path.read_bytes()
        if path.name == "report.txt":
            lines = data.splitlines(keepends=True)
            data = b"".join(ln for ln in lines if not ln.startswith(b"runtime_s"))
        digests[path.relative_to(out_dir).as_posix()] = hashlib.sha256(data).hexdigest()
    return digests


@pytest.fixture(scope="module")
def golden_out(tmp_path_factory):
    """The output directory of a golden run, run once on first use."""
    outs = {}

    def out(name):
        if name not in outs:
            outs[name] = tmp_path_factory.mktemp(name)
            run(_config(name), out_dir=outs[name])
        return outs[name]

    return out


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_artifacts_byte_stable(name, golden_out):
    assert artifact_digests(golden_out(name)) == GOLDEN[name]


def test_readme_documents_every_report_key(golden_out):
    # a key a report starts writing cannot stay undocumented
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    keys = {
        line.split(" = ", 1)[0]
        for name in sorted(GOLDEN)
        for path in golden_out(name).rglob("report.txt")
        for line in path.read_text().splitlines()
    }
    assert [key for key in sorted(keys) if f"`{key}`" not in readme] == []
