"""Microwave frequency identification toolkit.

Simulates an integrated photonic receiver that identifies microwave signals
two ways: a thermally scanned microring maps frequency to pulse delay
(statistical, multi-signal), and an asymmetric MZI maps frequency to power
(instantaneous, single-signal). Includes the waveform classifier and a
configuration-driven harness with CSV outputs.
"""

from .rf_signals import (
    ChirpSpec,
    HopSpec,
    RfScenario,
    SpectralSnapshot,
    TimeGrid,
    ToneSpec,
    instantaneous_components,
    sample_track,
)
from .photonic_link import (
    LinkModels,
    ModulatorModel,
    MrrModel,
    MziModel,
    NotchFilterModel,
    PdModel,
    acf,
    modulator_sideband_weight,
    mrr_drop_response,
    mrr_resonance_offset,
    mzi_port_response,
    notch_response,
    pd_detect,
    thermal_lag,
)
from .scan_engine import (
    CalibrationError,
    CalibrationTable,
    PulseEvent,
    SawtoothDrive,
    ScanTrace,
    calibrate,
    detect_pulses,
    estimate_frequencies,
    estimate_hop_set,
    measure_span,
    simulate_scan,
)
from .ifm_engine import (
    AcfLut,
    IfmTrace,
    InstFreqEstimate,
    build_lut,
    estimate_static_frequency,
    extract_inst_freq,
    simulate_ifm,
)
from .classifier import ClassLabel, EnvelopeFeatures, classify, compute_features
from .config import ConfigError, RunConfig
from .harness import MetricsReport, rms_error, run

__version__ = "0.1.0"
