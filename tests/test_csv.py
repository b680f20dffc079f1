"""The vectorised column writer against the f-string loops it replaced."""

from functools import partial

import numpy as np
from hypothesis import given, settings, strategies as st

from mwfi import _csv
from mwfi._csv import CHUNK_ROWS, render_rows
from mwfi.config import RunConfig
from mwfi.harness import run
from mwfi.ifm_engine import (
    IfmTrace,
    InstFreqEstimate,
    MziModel,
    build_lut,
    ifm_trace_to_csv,
    inst_freq_to_csv,
    lut_to_csv,
)
from mwfi.rf_signals import TimeGrid
from mwfi.scan_engine import ScanTrace, scan_trace_to_csv


def scalar_rows(columns, nan=None):
    def text(v):
        return nan if nan is not None and np.isnan(v) else f"{v:.10e}"

    return "".join(",".join(text(v) for v in row) + "\n" for row in zip(*columns))


EDGE_VALUES = [
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
    float("inf"), float("-inf"), float("nan"),
    0.5, 0.25, -0.25, 2.0**-17,  # 2**-17 = 7.62939453125e-06 is an exact 11-digit tie
    1.23456789015, -1.23456789015, 9.99999999995e-3, 9.99999999995e-3 * (1 + 2**-52),
    99999999999.5, 1e-12, 1e-13, 1e22, 1e23, 1e32, 1e33, 0.1, 1.0, 1e10, 1e11,
]

floats = st.one_of(
    st.floats(width=64, allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.sampled_from(EDGE_VALUES),
    # powers of ten and their float neighbours
    st.builds(
        lambda k, step: float(np.nextafter(10.0**k, step * np.inf)) if step else 10.0**k,
        st.integers(-40, 40),
        st.sampled_from([-1, 0, 1]),
    ),
    # near-ties: twelve significant digits ending in 5
    st.builds(
        lambda m, e, sign: sign * float(f"{m}5e{e}"),
        st.integers(10**10, 10**11 - 1),
        st.integers(-40, 40),
        st.sampled_from([-1.0, 1.0]),
    ),
)


# positive normal floats of the vectorised domain: rows of these alone take
# the fixed-width route of render_rows
positive = st.floats(min_value=1e-12, max_value=1e33, exclude_max=True)


@settings(max_examples=300, deadline=None)
@given(
    rows=st.one_of(
        st.lists(st.tuples(floats, floats), min_size=1, max_size=40),
        st.lists(st.tuples(positive, positive), min_size=1, max_size=40),
    ),
    nan=st.sampled_from([None, "NOISE"]),
)
def test_render_rows_matches_fstring(rows, nan):
    columns = [np.array(col, dtype=np.float64) for col in zip(*rows)]
    kwargs = {} if nan is None else {"nan": nan}
    assert render_rows(columns, **kwargs) == scalar_rows(columns, nan).encode()


def test_writers_match_scalar_loops_across_chunks(tmp_path):
    rng = np.random.default_rng(7)
    n = 2 * CHUNK_ROWS + 17
    grid = TimeGrid(sample_rate=1e9, n_samples=n)
    power = rng.standard_normal(n) * 10.0 ** rng.integers(-14, 3, n)
    freq = rng.uniform(10e9, 20e9, n)
    freq[rng.random(n) < 0.4] = np.nan
    # non-negative chunks take the fixed-width route; the second of four
    # (the last one short) holds -0.0, a NaN and a 3-digit exponent
    n_pos = 3 * CHUNK_ROWS + 5
    pos_grid = TimeGrid(sample_rate=1e9, n_samples=n_pos)
    positive = rng.uniform(1.0, 10.0, n_pos) * 10.0 ** rng.integers(-12, 32, n_pos)
    positive[CHUNK_ROWS + np.array([3, 500, 4000])] = -0.0, np.nan, 1.5e-150
    # a dynamic record over the same four chunks: the second mixes NOISE
    # rows with full-width rows, and the third and fourth are all full width
    pos_freq = rng.uniform(10e9, 20e9, n_pos)
    pos_freq[CHUNK_ROWS + np.array([11, 12, 6000])] = np.nan
    record = InstFreqEstimate(freq=pos_freq)
    port1, port2 = (IfmTrace(grid=pos_grid, power=rng.uniform(1e-6, 1.0, n_pos), port=k)
                    for k in (1, 2))
    # ratio-mode values are in dB; this band crosses 0 dB at quadrature
    lut = build_lut(MziModel(), band=(20e9, 50e9), mode="ratio", n_knots=n)

    cases = [
        (scan_trace_to_csv, ScanTrace(grid=grid, power=power),
         "time_s,power\n" + scalar_rows((grid.times(), power))),
        (ifm_trace_to_csv, IfmTrace(grid=grid, power=power, port=2),
         "time_s,power\n" + scalar_rows((grid.times(), power))),
        (ifm_trace_to_csv, IfmTrace(grid=pos_grid, power=positive, port=2),
         "time_s,power\n" + scalar_rows((pos_grid.times(), positive))),
        (partial(inst_freq_to_csv,
                 traces=[IfmTrace(grid=grid, power=power, port=2)]),
         InstFreqEstimate(freq=freq),
         "time_s,power,freq_hz_or_NOISE\n"
         + scalar_rows((grid.times(), power, freq), nan="NOISE")),
        (partial(inst_freq_to_csv, traces=[port1]), record,
         "time_s,power,freq_hz_or_NOISE\n"
         + scalar_rows((pos_grid.times(), port1.power, pos_freq), nan="NOISE")),
        (partial(inst_freq_to_csv, traces=[port1, port2]), record,
         "time_s,power,power_ref,freq_hz_or_NOISE\n"
         + scalar_rows((pos_grid.times(), port1.power, port2.power, pos_freq), nan="NOISE")),
        (lut_to_csv, lut,
         f"# mode=ratio port=2 f_lo_hz={20e9:.10e} f_hi_hz={50e9:.10e}"
         f" full_scale_w={lut.full_scale!r}\n"
         + scalar_rows((lut.freqs, lut.values))),
    ]
    assert lut.values.min() < 0 < lut.values.max()
    for i, (writer, obj, expected) in enumerate(cases):
        path = tmp_path / f"{i}.csv"
        writer(obj, path)
        assert path.read_bytes() == expected.encode(), i


def test_dynamic_run_renders_its_time_axis_once(tmp_path, monkeypatch):
    rendered = []
    render = _csv._render_column

    def counting(v, *args):
        rendered.append(v.size)
        return render(v, *args)

    monkeypatch.setattr(_csv, "_render_column", counting)
    n, n_knots = 2 * CHUNK_ROWS + 100, 64
    cfg = RunConfig.from_text(
        f"mode = dynamic\nifm.duration_s = {n}e-9\nifm.n_knots = {n_knots}\n"
        "scenario.tone1.freq_hz = 14e9\n"
    )
    report = run(cfg, out_dir=tmp_path)
    assert report.extras["n_samples"] == str(n)
    # time and power, then frequency, once each; the table's two columns
    assert sum(rendered) == 3 * n + 2 * n_knots
