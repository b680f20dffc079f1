import itertools

import numpy as np
import pytest

from mwfi.classifier import ClassLabel, EnvelopeFeatures, classify, compute_features
from mwfi.photonic_link import LinkModels, PdModel
from mwfi.rf_signals import ChirpSpec, HopSpec, RfScenario, ToneSpec
from mwfi.scan_engine import detect_pulses, simulate_scan

from conftest import make_grid


class TestClassify:
    def test_decision_table(self):
        assert classify(EnvelopeFeatures(1, False, None)) is ClassLabel.SINGLE_FREQUENCY
        assert classify(EnvelopeFeatures(2, False, None)) is ClassLabel.MULTIPLE_FREQUENCY
        assert classify(EnvelopeFeatures(5, False, None)) is ClassLabel.MULTIPLE_FREQUENCY
        assert classify(EnvelopeFeatures(1, True, True)) is ClassLabel.CHIRPED
        assert classify(EnvelopeFeatures(1, True, False)) is ClassLabel.FREQUENCY_HOPPING
        assert classify(EnvelopeFeatures(3, True, False)) is ClassLabel.FREQUENCY_HOPPING
        assert classify(EnvelopeFeatures(0, False, None)) is ClassLabel.UNKNOWN

    def test_total_over_feature_space(self):
        for n, filled, cont in itertools.product(range(5), (False, True), (None, False, True)):
            label = classify(EnvelopeFeatures(n, filled, cont))
            assert isinstance(label, ClassLabel)

    def test_tokens(self):
        # a label's value is its text in report.txt and sweep.csv
        assert ClassLabel.SINGLE_FREQUENCY.value == "single"
        assert ClassLabel.MULTIPLE_FREQUENCY.value == "multiple"
        assert ClassLabel.CHIRPED.value == "chirped"
        assert ClassLabel.FREQUENCY_HOPPING.value == "hopping"
        assert ClassLabel.UNKNOWN.value == "unknown"


SCENARIOS = {
    ClassLabel.SINGLE_FREQUENCY: RfScenario(tones=(ToneSpec(freq=15e9),)),
    ClassLabel.MULTIPLE_FREQUENCY: RfScenario(tones=(ToneSpec(freq=10e9), ToneSpec(freq=15e9))),
    ClassLabel.CHIRPED: RfScenario(
        chirps=(ChirpSpec(center=15e9, span=4e9, pulse_width=1.6e-6, repeat_interval=4e-6),)
    ),
    ClassLabel.FREQUENCY_HOPPING: RfScenario(
        hops=(HopSpec(freqs=(10e9, 13e9, 18e9), dwell=80e-9),)
    ),
}


class TestEndToEnd:
    @pytest.mark.parametrize("want", list(SCENARIOS), ids=lambda lab: lab.value)
    def test_canonical_scenarios(self, want, drive, grid_fast):
        scenario = SCENARIOS[want]
        for seed in range(3):
            models = LinkModels(pd=PdModel(noise_sigma=0.01))
            trace = simulate_scan(scenario, models, drive, grid_fast, 100 + seed)
            events = detect_pulses(trace)
            assert classify(compute_features(events, trace)) is want

    def test_four_hop_sequence_is_discrete(self, drive, grid_fast):
        sc = RfScenario(hops=(HopSpec(freqs=(10e9, 13e9, 15e9, 17e9), dwell=80e-9),))
        models = LinkModels(pd=PdModel(noise_sigma=0.01))
        trace = simulate_scan(sc, models, drive, grid_fast, 21)
        features = compute_features(detect_pulses(trace), trace)
        assert features.filled and features.continuous is False
        assert classify(features) is ClassLabel.FREQUENCY_HOPPING

    def test_empty_trace_unknown(self, noiseless_models, drive, grid_1ms):
        trace = simulate_scan(RfScenario(), noiseless_models, drive, grid_1ms)
        features = compute_features(detect_pulses(trace), trace)
        assert features == EnvelopeFeatures(0, False, None)
        assert classify(features) is ClassLabel.UNKNOWN

    def test_fill_statistics_separate_by_threshold(self, drive, grid_fast):
        # static fills must sit below half the threshold, modulated fills
        # above twice it, so the 0.25 default has headroom both ways
        fill_threshold = 0.25
        static_max, modulated_min = 0.0, 1.0
        for want, scenario in SCENARIOS.items():
            models = LinkModels(pd=PdModel(noise_sigma=0.01))
            trace = simulate_scan(scenario, models, drive, grid_fast, 55)
            fills = [ev.fill_randomness for ev in detect_pulses(trace)]
            if want in (ClassLabel.SINGLE_FREQUENCY, ClassLabel.MULTIPLE_FREQUENCY):
                static_max = max(static_max, max(fills))
            else:
                modulated_min = min(modulated_min, max(fills))
        assert static_max <= fill_threshold / 2
        assert modulated_min >= 2 * fill_threshold
