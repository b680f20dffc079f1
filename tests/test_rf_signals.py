import numpy as np
import pytest

from mwfi.rf_signals import (
    ChirpSpec,
    HopSpec,
    RfScenario,
    TimeGrid,
    ToneSpec,
    component_tracks,
    instantaneous_components,
    sample_track,
    sole_component_freq,
)


def chirp_ramp_oracle(chirp, t):
    """Independent linear-ramp oracle: f(t) = start + span * phase / width."""
    phase = t % chirp.repeat_interval
    if phase >= chirp.pulse_width:
        return None
    if chirp.direction == "up":
        return chirp.center - chirp.span / 2 + chirp.span * phase / chirp.pulse_width
    return chirp.center + chirp.span / 2 - chirp.span * phase / chirp.pulse_width


def test_tone_is_time_invariant():
    sc = RfScenario(tones=(ToneSpec(freq=15e9, amplitude=0.7),))
    for t in (0.0, 1e-6, 0.123, 7.0):
        snap = instantaneous_components(sc, t)
        assert snap.components == ((15e9, 0.7),)


def test_chirp_midpoint_is_center():
    chirp = ChirpSpec(center=15e9, span=4e9, pulse_width=1.6e-6, repeat_interval=4e-6)
    sc = RfScenario(chirps=(chirp,))
    snap = instantaneous_components(sc, 0.8e-6)
    assert snap.components[0][0] == pytest.approx(15e9, abs=1.0)
    assert snap.components[0][0] == pytest.approx(chirp_ramp_oracle(chirp, 0.8e-6))


def test_chirp_direction_down():
    chirp = ChirpSpec(
        center=15e9, span=4e9, pulse_width=1.6e-6, repeat_interval=4e-6, direction="down"
    )
    sc = RfScenario(chirps=(chirp,))
    f0 = instantaneous_components(sc, 0.0).components[0][0]
    f1 = instantaneous_components(sc, 1.5e-6).components[0][0]
    assert f0 == pytest.approx(17e9)
    assert f1 < f0


def test_chirp_off_between_pulses():
    chirp = ChirpSpec(center=15e9, span=4e9, pulse_width=1.6e-6, repeat_interval=4e-6)
    sc = RfScenario(chirps=(chirp,))
    assert instantaneous_components(sc, 2.0e-6).components == ()
    # boundary sample belongs to the off region (half-open pulse window)
    assert instantaneous_components(sc, 1.6e-6).components == ()


def test_hop_dwell_indexing():
    # 10/13/18 GHz, 80 ns dwell: t = 90 ns falls in dwell index 1
    sc = RfScenario(hops=(HopSpec(freqs=(10e9, 13e9, 18e9), dwell=80e-9),))
    snap = instantaneous_components(sc, 90e-9)
    assert snap.components == ((13e9, 1.0),)


def test_hop_boundary_belongs_to_later_dwell():
    sc = RfScenario(hops=(HopSpec(freqs=(10e9, 13e9), dwell=80e-9),))
    assert instantaneous_components(sc, 80e-9).components[0][0] == 13e9
    assert instantaneous_components(sc, 160e-9).components[0][0] == 10e9  # wraps


def test_hop_without_repeat_goes_silent():
    sc = RfScenario(hops=(HopSpec(freqs=(10e9, 13e9), dwell=80e-9, repeat=False),))
    assert instantaneous_components(sc, 100e-9).components[0][0] == 13e9
    assert instantaneous_components(sc, 170e-9).components == ()


def test_hop_start_delay():
    sc = RfScenario(hops=(HopSpec(freqs=(12e9,), dwell=1e-6, start=5e-7),))
    assert instantaneous_components(sc, 0.0).components == ()
    assert instantaneous_components(sc, 6e-7).components == ((12e9, 1.0),)


def test_empty_scenario_empty_snapshots():
    grid = TimeGrid(sample_rate=1e6, n_samples=16)
    snaps = sample_track(RfScenario(), grid)
    assert all(s.components == () for s in snaps)


def test_sample_track_tone_constant():
    grid = TimeGrid(sample_rate=1e6, n_samples=4)
    snaps = sample_track(RfScenario(tones=(ToneSpec(freq=12e9),)), grid)
    assert len(snaps) == 4
    assert all(s == snaps[0] for s in snaps)


def test_sample_track_hop_dwell_split():
    # 1 GS/s over 160 samples, 80 ns dwell: first 80 at 10 GHz, next 80 at 13
    grid = TimeGrid(sample_rate=1e9, n_samples=160)
    sc = RfScenario(hops=(HopSpec(freqs=(10e9, 13e9), dwell=80e-9),))
    snaps = sample_track(sc, grid)
    freqs = [s.components[0][0] for s in snaps]
    assert freqs[:80] == [10e9] * 80
    assert freqs[80:] == [13e9] * 80


def test_chirp_frequency_bounds_dense():
    chirp = ChirpSpec(center=15e9, span=4e9, pulse_width=1.6e-6, repeat_interval=4e-6)
    sc = RfScenario(chirps=(chirp,))
    for t in np.linspace(0, 20e-6, 4001):
        comps = instantaneous_components(sc, float(t)).components
        for f, _ in comps:
            assert abs(f - 15e9) <= 2e9 + 1e-3


def test_chirp_duty_cycle_on_incommensurate_grid():
    # sampling must not lock to the repeat interval for the duty estimate
    chirp = ChirpSpec(center=15e9, span=4e9, pulse_width=1.6e-6, repeat_interval=4e-6)
    sc = RfScenario(chirps=(chirp,))
    grid = TimeGrid(sample_rate=2718281.0, n_samples=100000)
    active = sum(1 for s in sample_track(sc, grid) if s.components)
    duty = chirp.pulse_width / chirp.repeat_interval
    assert active / grid.n_samples == pytest.approx(duty, abs=2e-3)


def test_snapshots_deterministic():
    sc = RfScenario(
        tones=(ToneSpec(freq=11e9),),
        chirps=(ChirpSpec(center=15e9, span=2e9, pulse_width=1e-6, repeat_interval=2e-6),),
        hops=(HopSpec(freqs=(10e9, 17e9), dwell=80e-9),),
    )
    for t in (0.0, 3.3e-7, 1.7e-6, 0.01):
        assert instantaneous_components(sc, t) == instantaneous_components(sc, t)


def test_identical_frequencies_merge_as_power():
    sc = RfScenario(tones=(ToneSpec(freq=10e9, amplitude=3.0), ToneSpec(freq=10e9, amplitude=4.0)))
    snap = instantaneous_components(sc, 0.0)
    assert len(snap.components) == 1
    f, a = snap.components[0]
    assert f == 10e9
    assert a == pytest.approx(5.0)  # sqrt(3^2 + 4^2)


def test_component_tracks_matches_scalar_path():
    rng = np.random.default_rng(42)
    for _ in range(10):
        sc = RfScenario(
            tones=(ToneSpec(freq=rng.uniform(9e9, 21e9)),),
            chirps=(
                ChirpSpec(
                    center=rng.uniform(12e9, 18e9),
                    span=rng.uniform(1e9, 5e9),
                    pulse_width=rng.uniform(0.2e-6, 1.5e-6),
                    repeat_interval=2e-6,
                ),
            ),
            hops=(HopSpec(freqs=tuple(rng.uniform(9e9, 21e9, 3)), dwell=rng.uniform(5e-8, 2e-7)),),
        )
        grid = TimeGrid(sample_rate=rng.uniform(5e6, 5e7), n_samples=64, t0=rng.uniform(0, 1e-5))
        tracks = component_tracks(sc, grid)
        for k, t in enumerate(grid.times()):
            expected = set(instantaneous_components(sc, float(t)).components)
            got = {
                (float(freq[k]), float(amp[k]))
                for freq, amp, active in tracks
                if active[k]
            }
            assert got == expected


@pytest.mark.parametrize(
    "sc",
    [
        # hop + chirp at 1 GS/s: every 80th sample sits on a dwell boundary
        RfScenario(
            chirps=(ChirpSpec(center=15e9, span=6e9, pulse_width=160e-9, repeat_interval=400e-9),),
            hops=(HopSpec(freqs=(10e9, 13e9, 15e9), dwell=80e-9),),
        ),
        # a tone and a hop share 13 GHz: those samples merge to one frequency
        RfScenario(
            tones=(ToneSpec(freq=13e9),),
            hops=(HopSpec(freqs=(13e9, 17e9), dwell=50e-9),),
        ),
        # two hops share 13 GHz; the second starts late and does not repeat
        RfScenario(
            hops=(
                HopSpec(freqs=(11e9, 13e9), dwell=50e-9),
                HopSpec(freqs=(13e9, 12e9), dwell=75e-9, start=1e-6, repeat=False),
            ),
        ),
        # the first hop starts after the grid; the other two agree on 11 GHz
        # and disagree (13 against 12 GHz) on alternate dwells
        RfScenario(
            hops=(
                HopSpec(freqs=(15e9,), dwell=100e-9, start=5e-6),
                HopSpec(freqs=(11e9, 13e9), dwell=100e-9),
                HopSpec(freqs=(11e9, 12e9), dwell=100e-9),
            ),
        ),
        RfScenario(),
    ],
)
def test_sole_component_freq_matches_scalar_path(sc):
    grid = TimeGrid(sample_rate=1e9, n_samples=2000)
    expected = []
    for t in grid.times():
        comps = instantaneous_components(sc, float(t)).components
        expected.append(comps[0][0] if len(comps) == 1 else np.nan)
    got = sole_component_freq(sc, grid)
    np.testing.assert_array_equal(got, expected)
    if sc.n_emitters:
        assert 0 < np.count_nonzero(np.isnan(got)) < grid.n_samples


def test_negative_time_rejected():
    with pytest.raises(ValueError):
        instantaneous_components(RfScenario(), -1e-9)


@pytest.mark.parametrize(
    "bad",
    [
        lambda: ToneSpec(freq=-1.0),
        lambda: ToneSpec(freq=1e9, amplitude=-0.1),
        lambda: ChirpSpec(center=1e9, span=0.0, pulse_width=1e-6, repeat_interval=1e-6),
        lambda: ChirpSpec(center=1e9, span=1e9, pulse_width=2e-6, repeat_interval=1e-6),
        lambda: ChirpSpec(center=1e9, span=1e9, pulse_width=1e-6, repeat_interval=1e-6, direction="sideways"),
        lambda: HopSpec(freqs=(), dwell=1e-6),
        lambda: HopSpec(freqs=(1e9,), dwell=0.0),
        lambda: TimeGrid(sample_rate=0.0, n_samples=4),
        lambda: TimeGrid(sample_rate=1e6, n_samples=0),
    ],
)
def test_invalid_specs_rejected(bad):
    with pytest.raises(ValueError):
        bad()
