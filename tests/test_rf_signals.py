import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mwfi.photonic_link import (
    BLOCK, ModulatorModel, MrrModel, MziModel, NotchFilterModel, PdModel,
)
from mwfi.scan_engine import SawtoothDrive
from mwfi.rf_signals import (
    TIME,
    ChirpSpec,
    HopSpec,
    RfScenario,
    TimeGrid,
    ToneSpec,
    component_tracks,
    instantaneous_components,
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
        assert instantaneous_components(sc, t) == ((15e9, 0.7),)


def test_chirp_midpoint_is_center():
    chirp = ChirpSpec(center=15e9, span=4e9, pulse_width=1.6e-6, repeat_interval=4e-6)
    sc = RfScenario(chirps=(chirp,))
    ((f, _),) = instantaneous_components(sc, 0.8e-6)
    assert f == pytest.approx(15e9, abs=1.0)
    assert f == pytest.approx(chirp_ramp_oracle(chirp, 0.8e-6))


def test_chirp_direction_down():
    chirp = ChirpSpec(
        center=15e9, span=4e9, pulse_width=1.6e-6, repeat_interval=4e-6, direction="down"
    )
    sc = RfScenario(chirps=(chirp,))
    f0 = instantaneous_components(sc, 0.0)[0][0]
    f1 = instantaneous_components(sc, 1.5e-6)[0][0]
    assert f0 == pytest.approx(17e9)
    assert f1 < f0


def test_chirp_off_between_pulses():
    chirp = ChirpSpec(center=15e9, span=4e9, pulse_width=1.6e-6, repeat_interval=4e-6)
    sc = RfScenario(chirps=(chirp,))
    assert instantaneous_components(sc, 2.0e-6) == ()
    # boundary sample belongs to the off region (half-open pulse window)
    assert instantaneous_components(sc, 1.6e-6) == ()


def test_hop_dwell_indexing():
    # 10/13/18 GHz, 80 ns dwell: t = 90 ns falls in dwell index 1
    sc = RfScenario(hops=(HopSpec(freqs=(10e9, 13e9, 18e9), dwell=80e-9),))
    assert instantaneous_components(sc, 90e-9) == ((13e9, 1.0),)


def test_hop_boundary_belongs_to_later_dwell():
    sc = RfScenario(hops=(HopSpec(freqs=(10e9, 13e9), dwell=80e-9),))
    assert instantaneous_components(sc, 80e-9)[0][0] == 13e9
    assert instantaneous_components(sc, 160e-9)[0][0] == 10e9  # wraps


def test_hop_without_repeat_goes_silent():
    sc = RfScenario(hops=(HopSpec(freqs=(10e9, 13e9), dwell=80e-9, repeat=False),))
    assert instantaneous_components(sc, 100e-9)[0][0] == 13e9
    assert instantaneous_components(sc, 170e-9) == ()


def test_hop_start_delay():
    sc = RfScenario(hops=(HopSpec(freqs=(12e9,), dwell=1e-6, start=5e-7),))
    assert instantaneous_components(sc, 0.0) == ()
    assert instantaneous_components(sc, 6e-7) == ((12e9, 1.0),)


def sample_pairs(sc, grid):
    return [instantaneous_components(sc, t) for t in grid.times()]


def test_empty_scenario_empty_snapshots():
    grid = TimeGrid(sample_rate=1e6, n_samples=16)
    assert sample_pairs(RfScenario(), grid) == [()] * 16


def test_sample_track_tone_constant():
    grid = TimeGrid(sample_rate=1e6, n_samples=4)
    snaps = sample_pairs(RfScenario(tones=(ToneSpec(freq=12e9),)), grid)
    assert len(snaps) == 4
    assert all(s == snaps[0] for s in snaps)


def test_sample_track_hop_dwell_split():
    # 1 GS/s over 160 samples, 80 ns dwell: first 80 at 10 GHz, next 80 at 13
    grid = TimeGrid(sample_rate=1e9, n_samples=160)
    sc = RfScenario(hops=(HopSpec(freqs=(10e9, 13e9), dwell=80e-9),))
    freqs = [pairs[0][0] for pairs in sample_pairs(sc, grid)]
    assert freqs[:80] == [10e9] * 80
    assert freqs[80:] == [13e9] * 80


def test_chirp_frequency_bounds_dense():
    chirp = ChirpSpec(center=15e9, span=4e9, pulse_width=1.6e-6, repeat_interval=4e-6)
    sc = RfScenario(chirps=(chirp,))
    for t in np.linspace(0, 20e-6, 4001):
        comps = instantaneous_components(sc, float(t))
        for f, _ in comps:
            assert abs(f - 15e9) <= 2e9 + 1e-3


def test_chirp_duty_cycle_on_incommensurate_grid():
    # sampling must not lock to the repeat interval for the duty estimate
    chirp = ChirpSpec(center=15e9, span=4e9, pulse_width=1.6e-6, repeat_interval=4e-6)
    sc = RfScenario(chirps=(chirp,))
    grid = TimeGrid(sample_rate=2718281.0, n_samples=100000)
    active = sum(1 for pairs in sample_pairs(sc, grid) if pairs)
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


def test_coincident_emitters_stay_two_components():
    sc = RfScenario(tones=(ToneSpec(freq=10e9, amplitude=3.0), ToneSpec(freq=10e9, amplitude=4.0)))
    pairs = instantaneous_components(sc, 0.0)
    assert pairs == ((10e9, 3.0), (10e9, 4.0))
    # their powers sum to that of one 10 GHz component of amplitude 5
    assert sum(a * a for _, a in pairs) == pytest.approx(5.0**2)


def test_component_tracks_matches_scalar_path():
    # at every sample the oracle's pairs are the active tracks, in emitter
    # order and bit for bit; coincident emitters stay apart: the second tone
    # sits on the first hop frequency, and the chirp comes twice
    rng = np.random.default_rng(42)
    for _ in range(10):
        chirp = ChirpSpec(
            center=rng.uniform(12e9, 18e9),
            span=rng.uniform(1e9, 5e9),
            pulse_width=rng.uniform(0.2e-6, 1.5e-6),
            repeat_interval=2e-6,
        )
        hop = HopSpec(
            freqs=tuple(rng.uniform(9e9, 21e9, 3)),
            dwell=rng.uniform(5e-8, 2e-7),
            start=rng.uniform(0, 1e-5),
        )
        sc = RfScenario(
            tones=(ToneSpec(freq=rng.uniform(9e9, 21e9)), ToneSpec(hop.freqs[0], amplitude=0.5)),
            chirps=(chirp, chirp),
            hops=(hop, HopSpec(hop.freqs[::-1], hop.dwell, amplitude=2.0, repeat=False)),
        )
        grid = TimeGrid(sample_rate=rng.uniform(5e6, 5e7), n_samples=64)
        # a tone's track and every amplitude are scalars: widen them to the grid
        n = grid.n_samples
        tracks = [
            tuple(np.broadcast_to(v, n) for v in track) for track in component_tracks(sc, grid)
        ]
        for k, t in enumerate(grid.times()):
            got = tuple(
                (float(freq[k]), float(amp[k]))
                for freq, amp, active in tracks
                if active[k]
            )
            assert instantaneous_components(sc, float(t)) == got


@settings(max_examples=40, deadline=None)
@given(
    center=st.floats(9e9, 21e9),
    span=st.floats(1e8, 6e9),
    duty=st.floats(0.05, 1.0),
    repeat=st.floats(2e-7, 1e-5),
    direction=st.sampled_from(["up", "down"]),
    hop=st.builds(
        HopSpec,
        freqs=st.lists(st.floats(9e9, 21e9), min_size=1, max_size=4).map(tuple),
        dwell=st.floats(1e-8, 1e-6),
        amplitude=st.floats(0.1, 2.0),
        start=st.floats(0.0, 2e-5),
        repeat=st.booleans(),
    ),
    rate=st.floats(1e8, 4e9),
    n=st.integers(BLOCK + 1, 3 * BLOCK),
    data=st.data(),
)
def test_block_powers_match_scalar_path(center, span, duty, repeat, direction, hop, rate, n, data):
    # the tracks the power sum reads, one block at a time, with the power
    # a**2 * on it gives each, against instantaneous_components at drawn
    # samples of the whole grid; most samples lie past the first block
    chirp = ChirpSpec(center, span, duty * repeat, repeat, amplitude=1.3, direction=direction)
    sc = RfScenario(tones=(ToneSpec(freq=11e9, amplitude=0.6),), chirps=(chirp,), hops=(hop,))
    grid = TimeGrid(sample_rate=rate, n_samples=n)
    times = grid.times()
    for k in data.draw(st.lists(st.integers(0, n - 1), min_size=4, max_size=8)):
        start = k - k % BLOCK
        got = {}
        for f, a, on in component_tracks(sc, grid, slice(start, start + BLOCK)):
            f, p = (float(v[k - start]) if np.ndim(v) else float(v) for v in (f, a**2 * on))
            if p > 0:
                got[f] = got.get(f, 0.0) + p
        want = {}
        for f, a in instantaneous_components(sc, float(times[k])):
            want[f] = want.get(f, 0.0) + a * a
        assert sorted(got) == sorted(want)
        assert [got[f] for f in sorted(want)] == pytest.approx(
            [want[f] for f in sorted(want)], rel=1e-12
        )


@settings(max_examples=30, deadline=None)
@given(
    hop=st.builds(
        HopSpec,
        freqs=st.lists(st.floats(9e9, 21e9), min_size=1, max_size=4).map(tuple),
        dwell=st.floats(1e-8, 1e-6),
        start=st.floats(0.0, 2e-5),
        repeat=st.booleans(),
    ),
    rate=st.floats(1e8, 4e9),
    n=st.integers(1, 3 * BLOCK),
    data=st.data(),
)
def test_block_tracks_equal_whole_grid_slices(hop, rate, n, data):
    # any slice of the grid, not only whole blocks: every track is elementwise
    # in the sample times, so a slice's tracks are the whole grid's, sliced
    chirp = ChirpSpec(15e9, 4e9, 1.6e-7, 4e-7, amplitude=1.3)
    sc = RfScenario(tones=(ToneSpec(freq=11e9, amplitude=0.6),), chirps=(chirp,), hops=(hop,))
    grid = TimeGrid(sample_rate=rate, n_samples=n)
    whole = component_tracks(sc, grid)
    block = data.draw(st.slices(n))
    got = component_tracks(sc, grid, block)
    assert len(got) == len(whole)
    for track, want in zip(got, whole):
        for g, w in zip(track, want):
            assert np.array_equal(g, w[block] if np.ndim(w) else w)


@settings(max_examples=100, deadline=None)
@given(
    rate=st.floats(1e6, 1e10),
    n=st.integers(2, 4096),
    repeat_at=st.floats(0.0, 1.0),
    dwell_at=st.floats(0.0, 1.0),
    duty=st.floats(0.05, 1.0),
    start_at=st.floats(0.0, 1.0),
    freqs=st.lists(st.floats(9e9, 21e9), min_size=1, max_size=4).map(tuple),
    repeat=st.booleans(),
    data=st.data(),
)
def test_tracks_equal_the_oracle_down_to_the_shortest_period(
    rate, n, repeat_at, dwell_at, duty, start_at, freqs, repeat, data
):
    # periods log-uniform from the low end of their range, 1e-15 s, up to 1 ms
    grid = TimeGrid(sample_rate=rate, n_samples=n)
    shortest = TIME[0]

    def log_uniform(at):
        lo, hi = math.log(shortest), math.log(1e-3)
        return min(max(math.exp(lo + at * (hi - lo)), shortest), 1e-3)

    repeat_interval = log_uniform(repeat_at)
    chirp = ChirpSpec(15e9, 4e9, max(duty * repeat_interval, shortest), repeat_interval)
    hop = HopSpec(freqs, log_uniform(dwell_at), start=start_at * grid.duration, repeat=repeat)
    sc = RfScenario(chirps=(chirp,), hops=(hop,))
    tracks = component_tracks(sc, grid)
    times = grid.times()
    # the last sample has the largest count of repeats and dwells
    for k in [n - 1] + data.draw(st.lists(st.integers(0, n - 2), max_size=8)):
        got = [float(freq[k]) for freq, _, active in tracks if active[k]]
        assert [f for f, _ in instantaneous_components(sc, float(times[k]))] == got


@pytest.mark.parametrize(
    "sc",
    [
        # hop + chirp at 1 GS/s: every 80th sample sits on a dwell boundary
        RfScenario(
            chirps=(ChirpSpec(center=15e9, span=6e9, pulse_width=160e-9, repeat_interval=400e-9),),
            hops=(HopSpec(freqs=(10e9, 13e9, 15e9), dwell=80e-9),),
        ),
        # a tone and a hop share 13 GHz: those samples hold one frequency
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
        freqs = {f for f, _ in instantaneous_components(sc, float(t))}
        expected.append(freqs.pop() if len(freqs) == 1 else np.nan)
    got = sole_component_freq(sc, grid)
    np.testing.assert_array_equal(got, expected)
    if sc != RfScenario():
        assert 0 < np.count_nonzero(np.isnan(got)) < grid.n_samples


def test_sole_component_freq_across_blocks():
    # three blocks of tracks, each boundary inside a dwell where the hops
    # disagree (13 against 12 GHz) between dwells where they agree on 11 GHz
    sc = RfScenario(hops=(HopSpec(freqs=(11e9, 13e9), dwell=100e-9),
                          HopSpec(freqs=(11e9, 12e9), dwell=100e-9)))
    grid = TimeGrid(sample_rate=1e9, n_samples=2 * BLOCK + 7)
    got, times = sole_component_freq(sc, grid), grid.times()
    near = np.r_[BLOCK - 150 : BLOCK + 150, 2 * BLOCK - 150 : 2 * BLOCK + 7]
    expected = []
    for t in times[near]:
        freqs = {f for f, _ in instantaneous_components(sc, float(t))}
        expected.append(freqs.pop() if len(freqs) == 1 else np.nan)
    np.testing.assert_array_equal(got[near], expected)
    assert np.isnan(got[BLOCK]) and got[BLOCK - 150] == got[BLOCK + 100] == 11e9


def test_short_pulse_tracks_stay_finite():
    # found by test_drawn_scenario_runs_finite_or_names_what_it_holds: the
    # ramp of the off samples' phases overflowed for a 1e-310 s pulse. The
    # pulse's range ends at 1e-15 s, but a library grid has no range: times
    # up to 4e305 s round the off phases up to 3.9e289 s, whose ramp overflows
    chirp = ChirpSpec(15e9, 4e9, pulse_width=1e-15, repeat_interval=1e3)
    grid = TimeGrid(sample_rate=1e-303, n_samples=400)
    ((freq, _, active),) = component_tracks(RfScenario(chirps=(chirp,)), grid)
    assert np.all(np.isfinite(freq)) and active[0] and freq[0] == 13e9
    assert not active.all()


def test_hop_count_past_int64_still_hops():
    # times past 9.3e3 s hold more than 2**63 dwells of 1e-15 s: an int64
    # dwell count overflowed to INT_MIN, and the hop read as one tone. A
    # config cannot reach it (a scan lasts at most 1e3 s), a library grid can
    hop = HopSpec(freqs=(10e9, 13e9, 18e9), dwell=TIME[0])
    grid = TimeGrid(sample_rate=1e-3, n_samples=40)
    ((freq, _, active),) = component_tracks(RfScenario(hops=(hop,)), grid)
    times = grid.times()
    assert (times / hop.dwell > 2.0**63).sum() > 20 and active.all()
    assert [(f,) for f in freq] == [
        tuple(f for f, _ in instantaneous_components(RfScenario(hops=(hop,)), float(t)))
        for t in times
    ]
    assert set(freq[times > 9.3e3]) == set(hop.freqs)


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
        lambda: ChirpSpec(center=1e9, span=1e9, pulse_width=1e-6, repeat_interval=1e-6,
                          direction="sideways"),
        lambda: HopSpec(freqs=(), dwell=1e-6),
        lambda: HopSpec(freqs=(1e9,), dwell=0.0),
        lambda: TimeGrid(sample_rate=0.0, n_samples=4),
        lambda: TimeGrid(sample_rate=1e6, n_samples=0),
        # the sweep's low end at 0 Hz
        lambda: ChirpSpec(center=2e9, span=4e9, pulse_width=1e-6, repeat_interval=1e-6),
        lambda: ChirpSpec(15e9, 4e9, 1e-6, 1e-6, amplitude=-1.0),
        lambda: HopSpec(freqs=(1e9,), dwell=1e-6, amplitude=-2.0),
        # outside its range: amplitude**2 overflows a float
        lambda: ToneSpec(freq=1e9, amplitude=1e200),
        lambda: HopSpec(freqs=(1e9,), dwell=1e-6, amplitude=float("nan")),
        # NaN times: a 15 GHz tone's IFM trace read about 0.079 W at each of them
        lambda: TimeGrid(sample_rate=math.nan, n_samples=8),
    ],
)
def test_invalid_specs_rejected(bad):
    with pytest.raises(ValueError):
        bad()


MODELS = (ModulatorModel, MrrModel, MziModel, NotchFilterModel, PdModel, SawtoothDrive,
          ToneSpec, ChirpSpec, HopSpec)
# (model, field, range, whether the field is a tuple) of every ranged field
RANGED = [(model, f.name, f.metadata["range"], f.type is tuple) for model in MODELS
          for f in dataclasses.fields(model) if "range" in f.metadata]
# the fields a model without defaults needs, valid together
REQUIRED = {
    ToneSpec: {"freq": 15e9},
    ChirpSpec: {"center": 15e9, "span": 4e9, "pulse_width": 1e-7, "repeat_interval": 1e-6},
    HopSpec: {"freqs": (10e9,), "dwell": 1e-7},
}
# (model, field, end 0 or 1) -> the partners that end of the field's range
# needs beside it, where the defaults break a cross-field check
PARTNERS = {
    (MrrModel, "fsr", 0): {"fwhm": 1.0},
    (MrrModel, "fwhm", 1): {"fsr": 1e13},
    (SawtoothDrive, "v_min", 1): {"v_max": 1e4},
    (ChirpSpec, "center", 0): {"span": 1.0},
    (ChirpSpec, "span", 1): {"center": 1e13},
    (ChirpSpec, "pulse_width", 1): {"repeat_interval": 1e3},
    (ChirpSpec, "repeat_interval", 0): {"pulse_width": 1e-15},
}


def test_every_numeric_field_declares_its_range():
    numeric = [(model, f.name) for model in MODELS for f in dataclasses.fields(model)
               if f.type in (float, tuple)]
    assert [(model, name) for model, name, _, _ in RANGED] == numeric
    assert len(RANGED) == 30 and all(lo < hi for _, _, (lo, hi), _ in RANGED)


@pytest.mark.parametrize("model, name, bounds, is_tuple", RANGED,
                         ids=[f"{model.__name__}.{name}" for model, name, _, _ in RANGED])
def test_ranged_field_admits_its_ends_and_refuses_past_and_nan(model, name, bounds, is_tuple):
    # every constructor, not only the config reader, holds each field to its
    # range, each value of a tuple included; NaN lies outside every range
    wrap = (lambda v: (v,)) if is_tuple else (lambda v: v)
    for end, at in enumerate(bounds):
        args = {**REQUIRED.get(model, {}), **PARTNERS.get((model, name, end), {})}
        assert getattr(model(**{**args, name: wrap(at)}), name) == wrap(at)
        for bad in (math.nextafter(at, (-math.inf, math.inf)[end]), math.nan):
            error = f"{name} {bad!r} lies outside {bounds[0]:g}..{bounds[1]:g}"
            with pytest.raises(ValueError, match=re.escape(error)):
                model(**{**args, name: wrap(bad)})
