"""Byte-stability of run artifacts: SHA-256 digests pinned per file.

Every artifact of three shipped presets, four tiny FTTM configs, a tiny
classify sweep, a tiny ratio-mode dynamic run and two 40 us dynamic runs is
hashed, sub-run directories included; report.txt is hashed without its
runtime_s line. A change to the numerics, the CSV formatting or the report
layout fails here.
Update a digest only for a deliberate change of output, and record why in
CHANGES.md.
"""

import hashlib

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

# fig6f for 40 us: 40,000 samples, so the power sum and the detector noise
# cross two block boundaries (photonic_link.BLOCK)
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
        "ifm_trace.csv": "9014cc08e0e054b9c52782283d14fb1a478e6a1f29dfcda26254f8cccaeb1cdc",
        "inst_freq.csv": "09104c8355bc7db1ed7e3da7e6fe4e229c9de78c67e2072d023e9b9f090815dc",
        "lut.csv": "6675836f4f0e1b496ee82821144e2fbe4d72c50ddc72a714aeac4ac876240162",
        "report.txt": "3a6ead7363361b0562a51466900afb3bf20c677361ade416224eb9d3b7f699c9",
    },
    "fig6f": {
        "ifm_trace.csv": "02d2bbcb49400f67fd4e46d4f97e32e798ebbf31ef4bfbead9e7453f16b535a1",
        "inst_freq.csv": "c20374c0cbcad64b9dce6bebb970891942129fffd0cd8f6788f0d3c7a80c6b99",
        "lut.csv": "6675836f4f0e1b496ee82821144e2fbe4d72c50ddc72a714aeac4ac876240162",
        "report.txt": "c82663330e15447d4e7a34492f6d16681e614a866dd5da7be0abe3f8558d2148",
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
        "ifm_trace.csv": "e32546521a18f1282b3c0bc038d28468ef102addd416ab9de7ac8208dbf76a78",
        "inst_freq.csv": "1ba63a19a1b48f0bc1252326c687b21e6ab2fcb485fe049f184981c0b4e5c51b",
        "lut.csv": "123f2c8c80818bb4ae24a3ffc9e430ad7599c10a0186cf29b9e5757aefcc9053",
        "report.txt": "abee6c32626d1acd8dd0b8d62d980b095aa12db02890b5323a98f6b99162bc42",
    },
    "tiny_sweep": {
        "report.txt": "5ffb16462ad471c9f67196103d6acde29948477d8c11da69b2338c6c733d1e8e",
        "seed_1/report.txt": "8faa401e601d15c9d3ca0014a670dcbe57abb9b0e1b845cb250e8a8ce1149ffa",
        "seed_2/report.txt": "f10b39e1b5068a557b3500fafeb53f31dee87a4021294b629383f322537bee83",
        "sweep.csv": "54b541b17e50b3b2f3b5c6ef1357146cd0cabbd10c7048e741bd1b3dfcbf7ed4",
    },
    "tiny_long_dynamic": {
        "ifm_trace.csv": "7032917c43f072c2bc2ba4e128bc7eb240bb1f7f9833747fe55aba7025c2d803",
        "inst_freq.csv": "83516f2e6fa59198954147fb44216ad6f2cad4f7719bc9e2dda2453a69403590",
        "lut.csv": "6675836f4f0e1b496ee82821144e2fbe4d72c50ddc72a714aeac4ac876240162",
        "report.txt": "918c06a8be7ce4eb9ba10925b530435ea05a34ce0c7e5b93f07db1074c6ec518",
    },
    "tiny_long_ratio": {
        "ifm_trace.csv": "99331d839d702d8bf68d0c936e465a9aca5d22e15cc94c1f157110fe914870bd",
        "inst_freq.csv": "a6bb4227d31a3588ce54a122b5e4d779b7cb00d91e7fd9b661fc57599aee89ea",
        "lut.csv": "123f2c8c80818bb4ae24a3ffc9e430ad7599c10a0186cf29b9e5757aefcc9053",
        "report.txt": "490376616d8c54c15422284c89a673a7f4f3e86d5c64907b44561a38f997f104",
    },
    "tiny_measure": {
        "calibration.txt": "cf7d13997ea6f360defbdcf50e956534f794fc8a917e2ff584491a1f7717c1fc",
        "estimates.csv": "0098136da7abf25e955b5fb45d3ff093f939820da3fa03899e7fc796d695d366",
        "report.txt": "03a5c0b2883c779184a3ca67a510e71899d11a3d8709c15c20ac1451066fe210",
    },
}


TINY = {
    "tiny_measure": TINY_MEASURE,
    "tiny_sweep": TINY_SWEEP,
    "tiny_classify": TINY_CLASSIFY,
    "tiny_chirp": TINY_CHIRP,
    "tiny_hop": TINY_HOP,
    "tiny_ratio": TINY_RATIO,
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


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_artifacts_byte_stable(name, tmp_path):
    run(_config(name), out_dir=tmp_path)
    assert artifact_digests(tmp_path) == GOLDEN[name]
